//! Segment requesting priorities (equations (6)–(9)).
//!
//! For a candidate segment `D_i`:
//!
//! * `R_i = max_j R_ij` — the best receiving rate over its suppliers (eq. 6),
//! * `t_i = (id_i − id_play)/p − 1/R_i`, `urgency_i = 1/t_i` — how close the
//!   segment is to its playback deadline (eq. 7),
//! * `rarity_i = Π_j (p_ij / B)` — the probability the segment is about to be
//!   replaced in **all** its suppliers' FIFO buffers (eq. 8, the paper's
//!   refinement of the traditional `1/n_i`),
//! * `priority_i = max(urgency_i, rarity_i)` (eq. 9).
//!
//! Eqs. 6 and 8 fold over a candidate's suppliers, so the context carries
//! them ([`CandidateSegment::max_rate`], [`CandidateSegment::rarity`]),
//! folded where the suppliers are appended; [`priority`] computes eqs. 7
//! and 9 from them.

use crate::scheduler::{replacement_fraction, CandidateSegment, SchedulingContext};

/// A very large urgency standing in for "the deadline has already passed"
/// (the paper's `1/t_i` with `t_i → 0⁺`).
pub const URGENCY_OVERDUE: f64 = 1.0e9;

/// The computed priority components of one candidate segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SegmentPriority {
    /// Deadline pressure (eq. 7).
    pub urgency: f64,
    /// Replacement risk at the suppliers (eq. 8).
    pub rarity: f64,
    /// The requesting priority (eq. 9).
    pub priority: f64,
}

/// Urgency of a segment (eq. 7).
///
/// `deadline_secs` is `(id_i − id_play)/p`, the time until the segment is due
/// for playback, and `max_rate` is `R_i`.  Overdue or immediately-due
/// segments get [`URGENCY_OVERDUE`].
pub fn urgency(deadline_secs: f64, max_rate: f64) -> f64 {
    let transfer = if max_rate > 0.0 { 1.0 / max_rate } else { 0.0 };
    let t = deadline_secs - transfer;
    if t <= 0.0 {
        URGENCY_OVERDUE
    } else {
        1.0 / t
    }
}

/// Rarity of a segment (eq. 8): the product over suppliers of
/// `position / capacity`.
pub fn rarity(positions: &[(usize, usize)]) -> f64 {
    rarity_of(positions.iter().copied())
}

/// Iterator form of [`rarity`].  An empty iterator yields 1.0 (an
/// unsupplied segment is maximally rare).
pub(crate) fn rarity_of(positions: impl Iterator<Item = (usize, usize)>) -> f64 {
    positions
        .map(|(position, capacity)| replacement_fraction(position, capacity))
        .product()
}

/// The traditional rarity the paper compares against (`1/n_i`); kept for the
/// ablation benchmarks.
pub fn traditional_rarity(supplier_count: usize) -> f64 {
    if supplier_count == 0 {
        1.0
    } else {
        1.0 / supplier_count as f64
    }
}

/// Full priority of a candidate segment within a scheduling context (eq. 9).
///
/// Runs once per candidate per node per period, so it must not allocate:
/// `R_i` and the rarity product come folded with the candidate, so only
/// eqs. 7 and 9 are computed here.
pub fn priority(ctx: &SchedulingContext, candidate: &CandidateSegment) -> SegmentPriority {
    let deadline_secs = (candidate.id.value() as f64 - ctx.id_play.value() as f64) / ctx.play_rate;
    let urgency = urgency(deadline_secs, candidate.max_rate);
    SegmentPriority {
        urgency,
        rarity: candidate.rarity,
        priority: urgency.max(candidate.rarity),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testing::{context, push};

    #[test]
    fn urgency_grows_as_the_deadline_approaches() {
        let far = urgency(10.0, 15.0);
        let near = urgency(1.0, 15.0);
        assert!(near > far);
        assert!((far - 1.0 / (10.0 - 1.0 / 15.0)).abs() < 1e-12);
    }

    #[test]
    fn overdue_segments_get_the_sentinel_urgency() {
        assert_eq!(urgency(0.0, 15.0), URGENCY_OVERDUE);
        assert_eq!(urgency(-3.0, 15.0), URGENCY_OVERDUE);
        assert_eq!(urgency(0.05, 15.0), URGENCY_OVERDUE);
        // Without any rate information the transfer term vanishes.
        assert!((urgency(2.0, 0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rarity_is_the_product_of_position_fractions() {
        // One supplier, newest position: almost no replacement risk.
        assert!((rarity(&[(1, 600)]) - 1.0 / 600.0).abs() < 1e-12);
        // One supplier, oldest position: about to be replaced.
        assert!((rarity(&[(600, 600)]) - 1.0).abs() < 1e-12);
        // Several suppliers multiply the risk down.
        let r = rarity(&[(300, 600), (300, 600)]);
        assert!((r - 0.25).abs() < 1e-12);
        // Degenerate inputs.
        assert_eq!(rarity(&[]), 1.0);
        assert_eq!(rarity(&[(5, 0)]), 1.0);
        assert_eq!(traditional_rarity(4), 0.25);
        assert_eq!(traditional_rarity(0), 1.0);
    }

    #[test]
    fn rarity_favours_segments_held_only_in_old_buffer_slots() {
        let endangered = rarity(&[(580, 600)]);
        let safe = rarity(&[(580, 600), (10, 600)]);
        assert!(endangered > safe);
    }

    #[test]
    fn priority_is_the_max_of_both_components() {
        let mut ctx = context(100, 15.0, false);
        // A segment due in 0.5 s: urgency dominates.
        push(&mut ctx, 105, &[(1, 15.0, 10)]);
        // A far-future segment that is about to be evicted everywhere:
        // rarity dominates.
        push(&mut ctx, 900, &[(1, 15.0, 590), (2, 20.0, 595)]);
        let p = priority(&ctx, &ctx.candidates[0]);
        assert!(p.urgency > p.rarity);
        assert_eq!(p.priority, p.urgency);

        let p = priority(&ctx, &ctx.candidates[1]);
        assert!(p.rarity > p.urgency);
        assert_eq!(p.priority, p.rarity);
        assert_eq!(p.rarity, rarity(&[(590, 600), (595, 600)]));
        let deadline = (900.0 - 100.0) / 10.0;
        assert_eq!(p.urgency, urgency(deadline, 20.0));
    }

    #[test]
    fn urgent_segments_outrank_far_safe_segments() {
        let mut ctx = context(100, 15.0, false);
        push(&mut ctx, 102, &[(1, 15.0, 10)]);
        push(&mut ctx, 200, &[(1, 15.0, 10)]);
        let soon = priority(&ctx, &ctx.candidates[0]);
        let later = priority(&ctx, &ctx.candidates[1]);
        assert!(soon.priority > later.priority);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]
        /// Rarity is always within (0, 1] and never increases when another
        /// supplier is added.
        #[test]
        fn prop_rarity_bounds_and_monotonicity(
            positions in proptest::collection::vec((1usize..=600, 600usize..=600), 1..6),
            extra in 1usize..=600,
        ) {
            let r = rarity(&positions);
            proptest::prop_assert!(r > 0.0 && r <= 1.0);
            let mut more = positions.clone();
            more.push((extra, 600));
            proptest::prop_assert!(rarity(&more) <= r + 1e-15);
        }

        /// Urgency is positive and monotone: closer deadlines never have
        /// lower urgency.
        #[test]
        fn prop_urgency_monotone(d1 in -5.0f64..20.0, d2 in -5.0f64..20.0, rate in 1.0f64..40.0) {
            let (near, far) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
            let u_near = urgency(near, rate);
            let u_far = urgency(far, rate);
            proptest::prop_assert!(u_near > 0.0 && u_far > 0.0);
            proptest::prop_assert!(u_near >= u_far);
        }
    }
}
