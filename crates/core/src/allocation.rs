//! The four-case rate allocation of Section 4.
//!
//! The ideal split `I1 = r1`, `I2 = r2` can only be realised when the
//! neighbourhood can actually deliver that much of each stream.  With `O1`
//! and `O2` the number of old/new-source segments the greedy assignment found
//! schedulable this period, the paper distinguishes four cases:
//!
//! | case | condition            | `I1`              | `I2`              |
//! |------|----------------------|-------------------|-------------------|
//! | 1    | `r1 ≤ O1`, `r2 ≤ O2` | `r1`              | `r2`              |
//! | 2    | `r1 ≤ O1`, `r2 > O2` | `min(O1, I − O2)` | `O2`              |
//! | 3    | `r1 > O1`, `r2 ≤ O2` | `O1`              | `min(O2, I − O1)` |
//! | 4    | `r1 > O1`, `r2 > O2` | `O1`              | `O2`              |

use crate::model::SwitchSplit;

/// Which of the four cases applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationCase {
    /// Both streams can absorb their ideal share.
    Ideal,
    /// The new source is supply-limited.
    NewLimited,
    /// The old source is supply-limited.
    OldLimited,
    /// Both streams are supply-limited.
    BothLimited,
}

/// The whole-segment allocation for one scheduling period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RateAllocation {
    /// Segments of the old source to retrieve this period (`I1`).
    pub old_segments: usize,
    /// Segments of the new source to retrieve this period (`I2`).
    pub new_segments: usize,
    /// Which case of Section 4 applied.
    pub case: AllocationCase,
}

#[cfg(test)]
impl RateAllocation {
    /// Total segments retrieved this period.
    pub fn total(&self) -> usize {
        self.old_segments + self.new_segments
    }
}

/// Applies the four-case rule and converts the result into whole segments.
///
/// * `split` — the ideal split `r1`/`r2` (segments per second),
/// * `available_old` / `available_new` — `O1` / `O2`, the schedulable
///   segments found by the greedy assignment,
/// * `inbound_budget` — `⌊I·τ⌋`, the node's whole-segment budget,
/// * `tau_secs` — the scheduling period.
///
/// Any budget left over by rounding is given to the new source first (that is
/// the quantity being minimised) and then to the old source, never exceeding
/// the available counts.
#[expect(
    clippy::cast_possible_truncation,
    reason = "i1 and i2 are clamped to >= 0 before the floor, float-to-int `as` saturates, and `min` caps each count at its availability"
)]
pub fn allocate_rates(
    split: SwitchSplit,
    available_old: usize,
    available_new: usize,
    inbound_budget: usize,
    tau_secs: f64,
) -> RateAllocation {
    assert!(tau_secs > 0.0, "scheduling period must be positive");
    let o1 = available_old as f64;
    let o2 = available_new as f64;
    let r1 = split.r1 * tau_secs;
    let r2 = split.r2 * tau_secs;
    let budget = inbound_budget as f64;

    let (i1, i2, case) = match (r1 <= o1, r2 <= o2) {
        (true, true) => (r1, r2, AllocationCase::Ideal),
        (true, false) => (
            o1.min(budget - o2.min(budget)),
            o2,
            AllocationCase::NewLimited,
        ),
        (false, true) => (
            o1,
            o2.min(budget - o1.min(budget)),
            AllocationCase::OldLimited,
        ),
        (false, false) => (o1, o2, AllocationCase::BothLimited),
    };

    // Integerise without exceeding the budget or the availability.
    let mut old_segments = (i1.max(0.0).floor() as usize).min(available_old);
    let mut new_segments = (i2.max(0.0).floor() as usize).min(available_new);
    if old_segments + new_segments > inbound_budget {
        // Trim the old source first: T2 is what the switch minimises.
        let excess = old_segments + new_segments - inbound_budget;
        let trim_old = excess.min(old_segments);
        old_segments -= trim_old;
        new_segments -= excess - trim_old;
    }
    // Spend any leftover budget, new source first.
    let leftover = inbound_budget.saturating_sub(old_segments + new_segments);
    let extra_new = leftover.min(available_new.saturating_sub(new_segments));
    new_segments += extra_new;
    let leftover = leftover - extra_new;
    let extra_old = leftover.min(available_old.saturating_sub(old_segments));
    old_segments += extra_old;

    RateAllocation {
        old_segments,
        new_segments,
        case,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split(r1: f64, r2: f64) -> SwitchSplit {
        SwitchSplit { r1, r2 }
    }

    #[test]
    fn case1_ideal_split_realised() {
        let a = allocate_rates(split(9.0, 6.0), 20, 20, 15, 1.0);
        assert_eq!(a.case, AllocationCase::Ideal);
        assert_eq!(a.old_segments, 9);
        assert_eq!(a.new_segments, 6);
        assert_eq!(a.total(), 15);
    }

    #[test]
    fn case2_new_source_supply_limited() {
        // Ideal wants 6 new segments but only 3 are schedulable; the spare
        // inbound goes to the old source instead.
        let a = allocate_rates(split(9.0, 6.0), 20, 3, 15, 1.0);
        assert_eq!(a.case, AllocationCase::NewLimited);
        assert_eq!(a.new_segments, 3);
        assert_eq!(a.old_segments, 12);
        assert_eq!(a.total(), 15);
    }

    #[test]
    fn case3_old_source_supply_limited() {
        let a = allocate_rates(split(9.0, 6.0), 4, 30, 15, 1.0);
        assert_eq!(a.case, AllocationCase::OldLimited);
        assert_eq!(a.old_segments, 4);
        assert_eq!(a.new_segments, 11);
        assert_eq!(a.total(), 15);
    }

    #[test]
    fn case4_both_supply_limited() {
        let a = allocate_rates(split(9.0, 6.0), 4, 3, 15, 1.0);
        assert_eq!(a.case, AllocationCase::BothLimited);
        assert_eq!(a.old_segments, 4);
        assert_eq!(a.new_segments, 3);
        assert!(a.total() <= 15);
    }

    #[test]
    fn rounding_leftover_goes_to_the_new_source_first() {
        // r1 = 7.4, r2 = 7.6 floor to 7 + 7 = 14; the leftover unit goes to
        // the new source.
        let a = allocate_rates(split(7.4, 7.6), 20, 20, 15, 1.0);
        assert_eq!(a.old_segments, 7);
        assert_eq!(a.new_segments, 8);
    }

    #[test]
    fn never_exceeds_budget_or_availability() {
        let a = allocate_rates(split(30.0, 25.0), 8, 9, 10, 1.0);
        assert!(a.total() <= 10);
        assert!(a.old_segments <= 8);
        assert!(a.new_segments <= 9);
    }

    #[test]
    fn fractional_period_scales_the_split() {
        // With τ = 0.5 s the per-period quantities halve.
        let a = allocate_rates(split(10.0, 4.0), 20, 20, 7, 0.5);
        assert_eq!(a.old_segments, 5);
        assert_eq!(a.new_segments, 2);
    }

    #[test]
    fn zero_availability_allocates_nothing() {
        let a = allocate_rates(split(10.0, 5.0), 0, 0, 15, 1.0);
        assert_eq!(a.total(), 0);
        assert_eq!(a.case, AllocationCase::BothLimited);
    }

    #[test]
    #[should_panic(expected = "period must be positive")]
    fn zero_tau_panics() {
        let _ = allocate_rates(split(1.0, 1.0), 1, 1, 1, 0.0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// The allocation never exceeds the inbound budget or the per-stream
        /// availability, and it never wastes budget while availability
        /// remains.
        #[test]
        fn prop_allocation_respects_all_caps(
            r1 in 0.0f64..40.0,
            o1 in 0usize..60,
            o2 in 0usize..60,
            budget in 0usize..40,
            total in 1.0f64..40.0,
        ) {
            let r1 = r1.min(total);
            let s = split(r1, total - r1);
            let a = allocate_rates(s, o1, o2, budget, 1.0);
            proptest::prop_assert!(a.old_segments <= o1);
            proptest::prop_assert!(a.new_segments <= o2);
            proptest::prop_assert!(a.total() <= budget);
            // No waste: either the budget is exhausted or all availability is
            // consumed.
            let exhausted = a.total() == budget;
            let drained = a.old_segments == o1 && a.new_segments == o2;
            proptest::prop_assert!(exhausted || drained);
        }
    }
}
