//! Greedy earliest-supplier assignment (Algorithm 1, step 1).
//!
//! Candidates are processed in decreasing priority order.  For each segment
//! the scheduler picks, among the neighbours holding it, the supplier that
//! can deliver it earliest given the requests already queued at that supplier
//! this period (`t_trans = 1/R(S_ij)` plus the supplier's accumulated queuing
//! time `τ(S_ij)`); segments that no supplier can deliver within the
//! scheduling period `τ` are skipped.  The result is the pair of ordered sets
//! `O1` (old source) and `O2` (new source).
//!
//! Choosing a supplier for every segment so that the fewest segments miss
//! their deadlines is NP-hard (parallel machine scheduling), which is why the
//! paper — and this module — uses the greedy heuristic; the test-only
//! `fss-spec` crate keeps an exact solver for tiny instances to measure the
//! gap.
//!
//! The pass is linear apart from one sort: each candidate is scored once,
//! from the eq. 6 and eq. 8 folds the context carries, and sorted on an
//! integer key (class, descending priority bits, then id; see
//! [`greedy_assign_into`]); the per-supplier queue is a column indexed by
//! neighbour-table slot that also holds `1/R(j)`, taken once per row.

use crate::priority::{priority, SegmentPriority};
use crate::scheduler::{SchedulingContext, SegmentId, StreamClass};
use fss_overlay::PeerId;

/// How candidates are ordered before the greedy pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignmentOrder {
    /// Strictly by decreasing priority, mixing both streams — the fast switch
    /// algorithm's order.
    ByPriority,
    /// All old-source segments (by priority) before any new-source segment —
    /// the normal switch algorithm's order.
    OldSourceFirst,
}

/// One segment together with the supplier the greedy pass chose for it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AssignedSegment {
    /// The segment to request.
    pub id: SegmentId,
    /// The chosen supplier.
    pub supplier: PeerId,
    /// Which stream the segment belongs to.
    pub class: StreamClass,
    /// The priority that ordered it.
    pub priority: SegmentPriority,
    /// Expected time (seconds into the period) at which the supplier would
    /// finish sending it.
    pub expected_receive_secs: f64,
}

/// The ordered schedulable sets produced by the greedy pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AssignmentOutcome {
    /// `O1`: schedulable old-source segments, highest priority first.
    pub old: Vec<AssignedSegment>,
    /// `O2`: schedulable new-source segments, highest priority first.
    pub new: Vec<AssignedSegment>,
    /// Candidates that no supplier could deliver within the period.
    pub skipped: usize,
}

impl AssignmentOutcome {
    /// `O1 = |O1|`.
    pub fn available_old(&self) -> usize {
        self.old.len()
    }

    /// `O2 = |O2|`.
    pub fn available_new(&self) -> usize {
        self.new.len()
    }
}

/// Reusable working state of the greedy pass: the scratch of every
/// [`SegmentScheduler::schedule_into`](crate::SegmentScheduler::schedule_into).
///
/// The period hot path runs `greedy_assign` for every node every period;
/// keeping the sort buffer, the score and queue columns and the outcome
/// vectors alive across calls makes the pass allocation-free after warm-up.
#[derive(Debug, Default)]
pub struct SchedulerScratch {
    /// `(sort key, id, candidate index)`, sorted into the greedy order.
    order: Vec<(u64, u64, usize)>,
    /// Priority and class per candidate index.
    scores: Vec<(SegmentPriority, StreamClass)>,
    /// Per neighbour slot: `t_trans = 1/R(j)` (`∞` for a rate `≤ 0`, which
    /// no period fits) and the queued transfer time `τ(S_ij)`.
    queue: Vec<(f64, f64)>,
    /// The outcome of the most recent [`greedy_assign_into`] call.
    pub outcome: AssignmentOutcome,
}

/// Runs the greedy supplier assignment over a scheduling context.
pub fn greedy_assign(ctx: &SchedulingContext, order: AssignmentOrder) -> AssignmentOutcome {
    let mut scratch = SchedulerScratch::default();
    greedy_assign_into(ctx, order, &mut scratch);
    scratch.outcome
}

// fss-lint: hot-path
/// Allocation-free variant of [`greedy_assign`]: results land in
/// `scratch.outcome`, whose buffers are reused across calls.
///
/// Scoring reads only each candidate's id and folds
/// ([`CandidateSegment::max_rate`](crate::CandidateSegment::max_rate),
/// [`rarity`](crate::CandidateSegment::rarity)); the suppliers are
/// walked once, in the greedy pass.  There a supplier wins only by a
/// strictly earlier finish, so ties go to the first in the candidate's
/// supplier order; the row order of the neighbour table never matters.
///
/// The greedy order is ascending `(key, id)`.  The key's low 63 bits are
/// `i64::MAX − bits(priority)`: priorities are non-negative (urgency is
/// positive), and for non-negative floats bit order is value order, so
/// ascending keys are descending priorities.  Under
/// [`AssignmentOrder::OldSourceFirst`] the top bit marks new-source
/// segments.  Candidate ids are unique, so the order is total.
///
/// # Panics
/// Panics if a priority is NaN or negative.
pub fn greedy_assign_into(
    ctx: &SchedulingContext,
    order: AssignmentOrder,
    scratch: &mut SchedulerScratch,
) {
    scratch.order.clear();
    scratch.scores.clear();
    for (idx, candidate) in ctx.candidates.iter().enumerate() {
        let priority = priority(ctx, candidate);
        let class = ctx.class_of(candidate.id);
        assert!(
            priority.priority >= 0.0,
            "priority must be non-negative and not NaN"
        );
        // `abs` orders -0.0 with 0.0, as a float comparison would.
        let mut key = i64::MAX as u64 - priority.priority.abs().to_bits();
        if order == AssignmentOrder::OldSourceFirst && class == StreamClass::New {
            key |= 1 << 63;
        }
        scratch.order.push((key, candidate.id.value(), idx));
        scratch.scores.push((priority, class));
    }
    scratch.order.sort_unstable();

    // Greedy earliest-finish supplier choice with per-supplier queuing.
    scratch.queue.clear();
    scratch.queue.extend(ctx.neighbours.iter().map(|n| {
        let t_trans = if n.rate > 0.0 {
            1.0 / n.rate
        } else {
            f64::INFINITY
        };
        (t_trans, 0.0)
    }));
    let outcome = &mut scratch.outcome;
    outcome.old.clear();
    outcome.new.clear();
    outcome.skipped = 0;
    for &(_, _, idx) in &scratch.order {
        let candidate = &ctx.candidates[idx];
        let mut best: Option<(f64, usize)> = None;
        for supplier in ctx.suppliers_of(candidate) {
            let slot = supplier.slot as usize;
            let (t_trans, queued) = scratch.queue[slot];
            let finish = t_trans + queued;
            if finish < ctx.tau_secs && best.is_none_or(|(b, _)| finish < b) {
                best = Some((finish, slot));
            }
        }
        let Some((finish, slot)) = best else {
            outcome.skipped += 1;
            continue;
        };
        scratch.queue[slot].1 = finish;
        let (priority, class) = scratch.scores[idx];
        let assigned = AssignedSegment {
            id: candidate.id,
            supplier: ctx.neighbours[slot].peer,
            class,
            priority,
            expected_receive_secs: finish,
        };
        match class {
            StreamClass::Old => outcome.old.push(assigned),
            StreamClass::New => outcome.new.push(assigned),
        }
    }
}
// fss-lint: end

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::{SegmentScheduler, SupplierInfo};
    use crate::testing::{context, push, Supplier};
    use crate::{FastSwitchScheduler, NormalSwitchScheduler};
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use std::collections::{BTreeMap, BTreeSet};

    /// A switch context: old session ends at 199, new session starts at 200,
    /// playback is at 190; `candidates` are `(id, [(peer, rate, position)])`.
    fn switch_ctx(candidates: &[(u64, &[Supplier])]) -> SchedulingContext {
        switch_ctx_at(190, candidates)
    }

    /// A switch context with an explicit playback position.
    fn switch_ctx_at(id_play: u64, candidates: &[(u64, &[Supplier])]) -> SchedulingContext {
        let mut ctx = context(id_play, 15.0, true);
        ctx.q1 = 10;
        ctx.q2 = 50;
        for &(id, suppliers) in candidates {
            push(&mut ctx, id, suppliers);
        }
        ctx
    }

    #[test]
    fn splits_candidates_into_old_and_new_sets() {
        let ctx = switch_ctx(&[
            (191, &[(1, 15.0, 100)]),
            (205, &[(2, 15.0, 5)]),
            (192, &[(1, 15.0, 100)]),
        ]);
        let out = greedy_assign(&ctx, AssignmentOrder::ByPriority);
        assert_eq!(out.available_old(), 2);
        assert_eq!(out.available_new(), 1);
        assert_eq!(out.skipped, 0);
        assert!(out.old.iter().all(|a| a.class == StreamClass::Old));
        assert!(out.new.iter().all(|a| a.class == StreamClass::New));
    }

    #[test]
    fn prefers_the_supplier_that_finishes_earliest() {
        let ctx = switch_ctx(&[(191, &[(1, 5.0, 100), (2, 20.0, 100)])]);
        let out = greedy_assign(&ctx, AssignmentOrder::ByPriority);
        assert_eq!(out.old[0].supplier, 2);
        assert!((out.old[0].expected_receive_secs - 0.05).abs() < 1e-12);
    }

    #[test]
    fn queuing_time_spreads_load_across_suppliers() {
        // Two suppliers at the same rate: consecutive segments alternate
        // between them because the first pick accumulates queuing time.
        let suppliers: &[Supplier] = &[(1, 10.0, 100), (2, 10.0, 100)];
        let ctx = switch_ctx(&[
            (191, suppliers),
            (192, suppliers),
            (193, suppliers),
            (194, suppliers),
        ]);
        let out = greedy_assign(&ctx, AssignmentOrder::ByPriority);
        let to_1 = out.old.iter().filter(|a| a.supplier == 1).count();
        let to_2 = out.old.iter().filter(|a| a.supplier == 2).count();
        assert_eq!(to_1, 2);
        assert_eq!(to_2, 2);
    }

    #[test]
    fn segments_that_cannot_arrive_within_the_period_are_skipped() {
        // One slow supplier: only ~1 segment fits in a period at 1.2 seg/s;
        // a 0.5 seg/s supplier fits none.
        let ctx = switch_ctx(&[
            (191, &[(1, 1.2, 100)]),
            (192, &[(1, 1.2, 100)]),
            (193, &[(2, 0.5, 100)]),
        ]);
        let out = greedy_assign(&ctx, AssignmentOrder::ByPriority);
        assert_eq!(out.available_old(), 1);
        assert_eq!(out.skipped, 2);
    }

    #[test]
    fn by_priority_order_interleaves_streams() {
        // Playback is far behind (id_play = 100): an old segment right at the
        // deadline is urgent, a new segment about to be evicted from its only
        // supplier is rare, and an old segment far from its deadline is
        // neither.  The interleaved order must rank the rare new segment
        // ahead of the mundane old one (this is exactly Figure 2's point).
        let ctx = switch_ctx_at(
            100,
            &[
                (101, &[(1, 15.0, 10)]),  // urgent old
                (200, &[(2, 15.0, 590)]), // rare new
                (195, &[(3, 15.0, 10)]),  // mundane old
            ],
        );

        let fast = greedy_assign(&ctx, AssignmentOrder::ByPriority);
        assert_eq!(fast.old.len(), 2);
        assert_eq!(fast.new.len(), 1);
        // urgency(101) > rarity(200) > urgency(195).
        assert!(fast.old[0].priority.priority > fast.new[0].priority.priority);
        assert!(fast.new[0].priority.priority > fast.old[1].priority.priority);

        let normal = greedy_assign(&ctx, AssignmentOrder::OldSourceFirst);
        // Same membership, but the normal order always drains old first; the
        // ordering difference shows up in supplier queuing when they share
        // suppliers (not here) and in which segments survive truncation by
        // the allocation step.
        assert_eq!(normal.old.len(), 2);
        assert_eq!(normal.new.len(), 1);
    }

    #[test]
    fn old_first_order_assigns_old_segments_before_new_ones() {
        // A single supplier that can send two segments per period; under the
        // old-first order both old segments get it and the new one is
        // skipped, under priority order the rare new segment wins a slot.
        let ctx = switch_ctx_at(
            100,
            &[
                (185, &[(1, 2.5, 10)]),
                (186, &[(1, 2.5, 10)]),
                (200, &[(1, 2.5, 595)]),
            ],
        );
        let normal = greedy_assign(&ctx, AssignmentOrder::OldSourceFirst);
        assert_eq!(normal.available_old(), 2);
        assert_eq!(normal.available_new(), 0);
        assert_eq!(normal.skipped, 1);

        let fast = greedy_assign(&ctx, AssignmentOrder::ByPriority);
        assert_eq!(
            fast.available_new(),
            1,
            "rare new segment outranks an old one"
        );
        assert_eq!(fast.available_old(), 1);
        assert_eq!(fast.skipped, 1);
    }

    #[test]
    fn empty_context_yields_empty_outcome() {
        let ctx = switch_ctx(&[]);
        let out = greedy_assign(&ctx, AssignmentOrder::ByPriority);
        assert_eq!(out.available_old(), 0);
        assert_eq!(out.available_new(), 0);
        assert_eq!(out.skipped, 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// The greedy pass never assigns more work to a supplier than fits in
        /// one period, never loses candidates (assigned + skipped = total),
        /// and keeps each output set sorted by non-increasing priority.
        #[test]
        fn prop_greedy_invariants(
            rates in proptest::collection::vec(2.0f64..30.0, 5..6),
            specs in proptest::collection::vec(
                (185u64..230, proptest::collection::vec((1u32..6, 1u32..=600), 1..4)),
                1..40,
            )
        ) {
            let mut ctx = switch_ctx(&[]);
            for (i, (id, suppliers)) in specs.iter().enumerate() {
                // Each peer has one rate; keep one entry per peer.
                let mut seen = BTreeSet::new();
                let suppliers: Vec<Supplier> = suppliers
                    .iter()
                    .filter(|(p, _)| seen.insert(*p))
                    .map(|&(p, pos)| (p, rates[p as usize - 1], pos))
                    .collect();
                push(&mut ctx, *id + (i as u64 * 50), &suppliers);
            }
            let total = ctx.candidates.len();
            for order in [AssignmentOrder::ByPriority, AssignmentOrder::OldSourceFirst] {
                let out = greedy_assign(&ctx, order);
                proptest::prop_assert_eq!(out.old.len() + out.new.len() + out.skipped, total);

                // Per-supplier load fits in a period.
                let mut load: BTreeMap<PeerId, f64> = BTreeMap::new();
                for a in out.old.iter().chain(out.new.iter()) {
                    *load.entry(a.supplier).or_default() += 1.0 / rates[a.supplier as usize - 1];
                }
                for (_, l) in load {
                    proptest::prop_assert!(l < ctx.tau_secs + 1e-9);
                }

                // Output sets are priority-sorted.
                for set in [&out.old, &out.new] {
                    for pair in set.windows(2) {
                        proptest::prop_assert!(
                            pair[0].priority.priority >= pair[1].priority.priority - 1e-12
                        );
                    }
                }
            }
        }
    }

    /// The kernel as it was before the flat context, kept as the oracle of
    /// the differential test: two-pass priorities, a `NotNan` comparator
    /// sort, an `FxHashMap` queue keyed by peer with `1/rate` taken per
    /// supplier, and the Fast scheduler's sort-based merge.  It reads the
    /// context only through expanded `(peer, rate, position, capacity)`
    /// suppliers.
    mod oracle {
        use super::super::{AssignedSegment, AssignmentOrder, AssignmentOutcome};
        use crate::allocation::allocate_rates;
        use crate::model::SwitchModel;
        use crate::priority::{rarity_of, urgency, SegmentPriority};
        use crate::scheduler::{CandidateSegment, SchedulingContext, SegmentRequest, StreamClass};
        use fss_overlay::PeerId;
        use fss_sim::hasher::FxHashMap;

        fn suppliers<'a>(
            ctx: &'a SchedulingContext,
            candidate: &'a CandidateSegment,
        ) -> impl Iterator<Item = (PeerId, f64, usize, usize)> + 'a {
            ctx.suppliers_of(candidate).iter().map(|s| {
                let n = ctx.neighbour(s);
                let (position, capacity) = (s.buffer_position, n.buffer_capacity);
                (n.peer, n.rate, position as usize, capacity as usize)
            })
        }

        fn priority(ctx: &SchedulingContext, candidate: &CandidateSegment) -> SegmentPriority {
            let deadline_secs =
                (candidate.id.value() as f64 - ctx.id_play.value() as f64) / ctx.play_rate;
            let max_rate = suppliers(ctx, candidate).map(|s| s.1).fold(0.0, f64::max);
            let urgency = urgency(deadline_secs, max_rate);
            let rarity = rarity_of(suppliers(ctx, candidate).map(|s| (s.2, s.3)));
            SegmentPriority {
                urgency,
                rarity,
                priority: urgency.max(rarity),
            }
        }

        pub fn greedy_assign(ctx: &SchedulingContext, order: AssignmentOrder) -> AssignmentOutcome {
            let mut scored: Vec<(usize, SegmentPriority, StreamClass)> = ctx
                .candidates
                .iter()
                .enumerate()
                .map(|(idx, c)| (idx, priority(ctx, c), ctx.class_of(c.id)))
                .collect();
            scored.sort_unstable_by(|a, b| {
                let class_rank = |class: StreamClass| match class {
                    StreamClass::Old => 0u8,
                    StreamClass::New => 1u8,
                };
                let key_a = (
                    class_rank(a.2),
                    std::cmp::Reverse(ordered(a.1.priority)),
                    ctx.candidates[a.0].id,
                );
                let key_b = (
                    class_rank(b.2),
                    std::cmp::Reverse(ordered(b.1.priority)),
                    ctx.candidates[b.0].id,
                );
                match order {
                    AssignmentOrder::OldSourceFirst => key_a.cmp(&key_b),
                    AssignmentOrder::ByPriority => (key_a.1, key_a.2).cmp(&(key_b.1, key_b.2)),
                }
            });

            let mut queue: FxHashMap<PeerId, f64> = FxHashMap::default();
            let mut outcome = AssignmentOutcome::default();
            for &(idx, priority, class) in &scored {
                let candidate = &ctx.candidates[idx];
                let mut best: Option<(f64, PeerId)> = None;
                for (peer, rate, _, _) in suppliers(ctx, candidate) {
                    if rate <= 0.0 {
                        continue;
                    }
                    let t_trans = 1.0 / rate;
                    let finish = t_trans + queue.get(&peer).copied().unwrap_or(0.0);
                    if finish < ctx.tau_secs && best.is_none_or(|(b, _)| finish < b) {
                        best = Some((finish, peer));
                    }
                }
                match best {
                    Some((finish, peer)) => {
                        queue.insert(peer, finish);
                        let assigned = AssignedSegment {
                            id: candidate.id,
                            supplier: peer,
                            class,
                            priority,
                            expected_receive_secs: finish,
                        };
                        match class {
                            StreamClass::Old => outcome.old.push(assigned),
                            StreamClass::New => outcome.new.push(assigned),
                        }
                    }
                    None => outcome.skipped += 1,
                }
            }
            outcome
        }

        fn ordered(x: f64) -> ordered_float::NotNan {
            ordered_float::NotNan::new(x)
        }

        mod ordered_float {
            /// An `f64` known not to be NaN, with a total order.
            #[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
            pub struct NotNan(f64);

            impl NotNan {
                pub fn new(x: f64) -> Self {
                    assert!(!x.is_nan(), "priority must not be NaN");
                    NotNan(x)
                }
            }

            impl Eq for NotNan {}

            #[allow(clippy::derive_ord_xor_partial_ord)]
            impl Ord for NotNan {
                fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                    self.partial_cmp(other)
                        .expect("NotNan values always compare")
                }
            }
        }

        fn merge_by_priority(
            old: &[AssignedSegment],
            new: &[AssignedSegment],
            out: &mut Vec<SegmentRequest>,
            limit: usize,
        ) {
            let mut merged: Vec<&AssignedSegment> = old.iter().chain(new).collect();
            merged.sort_unstable_by(|a, b| {
                b.priority
                    .priority
                    .partial_cmp(&a.priority.priority)
                    .expect("priorities are finite")
                    .then(a.id.cmp(&b.id))
            });
            out.extend(merged.iter().take(limit).map(|a| SegmentRequest {
                segment: a.id,
                supplier: a.supplier,
            }));
        }

        pub fn fast(ctx: &SchedulingContext) -> Vec<SegmentRequest> {
            let mut out = Vec::new();
            let budget = ctx.inbound_budget();
            if budget == 0 || ctx.candidates.is_empty() {
                return out;
            }
            let outcome = greedy_assign(ctx, AssignmentOrder::ByPriority);
            if outcome.old.is_empty() || outcome.new.is_empty() || !ctx.switch_in_progress() {
                merge_by_priority(&outcome.old, &outcome.new, &mut out, budget);
                return out;
            }
            let model = SwitchModel::new(
                ctx.q1.max(1) as f64,
                ctx.q2 as f64,
                ctx.startup_q as f64,
                ctx.play_rate,
                ctx.inbound_rate,
            );
            let allocation = allocate_rates(
                model.optimal_split(),
                outcome.available_old(),
                outcome.available_new(),
                budget,
                ctx.tau_secs,
            );
            merge_by_priority(
                &outcome.old[..allocation.old_segments],
                &outcome.new[..allocation.new_segments],
                &mut out,
                usize::MAX,
            );
            out
        }

        pub fn normal(ctx: &SchedulingContext) -> Vec<SegmentRequest> {
            let budget = ctx.inbound_budget();
            if budget == 0 || ctx.candidates.is_empty() {
                return Vec::new();
            }
            let outcome = greedy_assign(ctx, AssignmentOrder::OldSourceFirst);
            let old_take = outcome.available_old().min(budget);
            let new_take = outcome.available_new().min(budget - old_take);
            outcome
                .old
                .iter()
                .take(old_take)
                .chain(outcome.new.iter().take(new_take))
                .map(|a| SegmentRequest {
                    segment: a.id,
                    supplier: a.supplier,
                })
                .collect()
        }
    }

    /// A random context for the kernel differential test: 0–40 candidates
    /// with unique ids in shuffled order over 1–12 neighbours, rates of 0,
    /// negative, 0.5–30 and `+∞`, budgets 0–30, with and without a switch.
    /// Positions at the capacity (rarity 1) and playback near the stream
    /// boundary (overdue segments of both streams) make equal priorities
    /// common, across streams too.
    fn random_context(seed: u64) -> SchedulingContext {
        let mut rng = SmallRng::seed_from_u64(seed);
        let budget = rng.gen_range(0..=30usize);
        let tau = [0.5, 1.0, 2.0][rng.gen_range(0..3usize)];
        let mut ctx = context(
            rng.gen_range(150..=205),
            (budget as f64 + 0.5) / tau,
            rng.gen_range(0..2) == 0,
        );
        ctx.tau_secs = tau;
        ctx.q1 = rng.gen_range(0..=60);
        ctx.q2 = rng.gen_range(0..=50);
        let capacity = [1, 8, 600usize][rng.gen_range(0..3usize)];
        let neighbours = rng.gen_range(1..=12u32);
        for n in 0..neighbours {
            let rate = match rng.gen_range(0..8) {
                0 => 0.0,
                1 => -rng.gen_range(0.5..30.0),
                2 => f64::INFINITY,
                _ => rng.gen_range(0.5..30.0),
            };
            ctx.push_neighbour(3 * n + 1, rate, capacity);
        }
        let mut ids: Vec<u64> = (150..=260).collect();
        ids.shuffle(&mut rng);
        ids.truncate(rng.gen_range(0..=40));
        for id in ids {
            let mut slots: Vec<u32> = (0..neighbours)
                .filter(|_| rng.gen_range(0..3) == 0)
                .collect();
            if rng.gen_range(0..2) == 0 {
                slots.shuffle(&mut rng);
            }
            let oldest = rng.gen_range(0..3) == 0;
            let suppliers: Vec<SupplierInfo> = slots
                .into_iter()
                .map(|slot| SupplierInfo {
                    slot,
                    buffer_position: if oldest {
                        capacity as u32
                    } else {
                        rng.gen_range(1..=capacity as u32)
                    },
                })
                .collect();
            ctx.push_candidate(SegmentId(id), suppliers);
        }
        ctx
    }

    /// Runs the kernel, Fast and Normal on the contexts of `seed` and of a
    /// derived seed (on one reused scratch each) and compares them with the
    /// oracle exactly.
    fn check_kernel(seed: u64) -> Result<(), proptest::TestCaseError> {
        let mut assign = SchedulerScratch::default();
        let (mut fast_scratch, mut normal_scratch) =
            (SchedulerScratch::default(), SchedulerScratch::default());
        let mut out = Vec::new();
        for seed in [seed, seed ^ 0x9e37_79b9_7f4a_7c15] {
            let ctx = random_context(seed);
            for order in [AssignmentOrder::ByPriority, AssignmentOrder::OldSourceFirst] {
                greedy_assign_into(&ctx, order, &mut assign);
                proptest::prop_assert_eq!(&assign.outcome, &oracle::greedy_assign(&ctx, order));
            }
            FastSwitchScheduler::new().schedule_into(&ctx, &mut fast_scratch, &mut out);
            proptest::prop_assert_eq!(&out, &oracle::fast(&ctx));
            NormalSwitchScheduler::new().schedule_into(&ctx, &mut normal_scratch, &mut out);
            proptest::prop_assert_eq!(&out, &oracle::normal(&ctx));
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// `greedy_assign`, `FastSwitchScheduler` and `NormalSwitchScheduler`
        /// equal the pre-flat-context kernel kept in [`oracle`]: the same
        /// outcome (sets, order, suppliers, priorities, finish times,
        /// skips) and the same request lists.
        #[test]
        fn prop_kernel_matches_the_oracle(seed in 0u64..u64::MAX) {
            check_kernel(seed)?;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(20_000))]
        /// Soak of [`prop_kernel_matches_the_oracle`].
        #[test]
        #[ignore = "soak: 20k kernel cases (run with -- --ignored)"]
        fn prop_kernel_soak(seed in 0u64..u64::MAX) {
            check_kernel(seed)?;
        }
    }
}
