//! Exact supplier assignment for tiny instances.
//!
//! The supplier-assignment problem of Algorithm 1 ("how to choose a proper
//! supplier for every data segment so that the number of segments missing
//! deadlines or being replaced can be the minimal") is NP-hard in general —
//! the paper points at parallel machine scheduling.  For instances with a
//! handful of segments an exhaustive search is feasible; this module provides
//! one so the test-suite and the ablation bench can measure how far the
//! greedy heuristic ([`fss_core::greedy_assign`]) is from optimal.  It is a
//! test oracle and lives in this test-only crate.

use fss_core::{SchedulingContext, SegmentId};
use fss_overlay::PeerId;

/// The best assignment found by exhaustive search.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimalAssignment {
    /// Chosen `(segment, supplier)` pairs.
    pub assigned: Vec<(SegmentId, PeerId)>,
    /// Number of segments that can be delivered within the period.
    pub delivered: usize,
    /// Total weighted priority of the delivered segments (tie-breaker used to
    /// prefer delivering high-priority segments).
    pub priority_mass: f64,
}

/// Upper bound on the number of candidates the exact solver accepts.
pub const MAX_EXACT_CANDIDATES: usize = 12;

/// Exhaustively finds the assignment that maximises the number of segments
/// deliverable within one period (ties broken by total priority mass).  The
/// per-supplier load is a column indexed by neighbour slot.
///
/// # Panics
/// Panics if the context has more than [`MAX_EXACT_CANDIDATES`] candidates —
/// the search is exponential and meant for micro-instances only.
pub fn optimal_assign(ctx: &SchedulingContext) -> OptimalAssignment {
    assert!(
        ctx.candidates.len() <= MAX_EXACT_CANDIDATES,
        "exact solver limited to {MAX_EXACT_CANDIDATES} candidates, got {}",
        ctx.candidates.len()
    );
    let priorities: Vec<f64> = ctx
        .candidates
        .iter()
        .map(|c| fss_core::priority(ctx, c).priority.min(1.0e6))
        .collect();

    let mut best = OptimalAssignment {
        assigned: Vec::new(),
        delivered: 0,
        priority_mass: 0.0,
    };
    let mut current: Vec<(SegmentId, PeerId)> = Vec::new();
    let mut load = vec![0.0; ctx.neighbours.len()];
    search(ctx, &priorities, 0, &mut current, &mut load, 0.0, &mut best);
    best
}

#[allow(clippy::too_many_arguments)]
fn search(
    ctx: &SchedulingContext,
    priorities: &[f64],
    index: usize,
    current: &mut Vec<(SegmentId, PeerId)>,
    load: &mut [f64],
    mass: f64,
    best: &mut OptimalAssignment,
) {
    if index == ctx.candidates.len() {
        let delivered = current.len();
        if delivered > best.delivered
            || (delivered == best.delivered && mass > best.priority_mass + 1e-12)
        {
            *best = OptimalAssignment {
                assigned: current.clone(),
                delivered,
                priority_mass: mass,
            };
        }
        return;
    }
    // Prune: even assigning every remaining candidate cannot beat the best.
    let remaining = ctx.candidates.len() - index;
    if current.len() + remaining < best.delivered {
        return;
    }

    let candidate = &ctx.candidates[index];
    // Option A: skip this segment.
    search(ctx, priorities, index + 1, current, load, mass, best);
    // Option B: assign it to each feasible supplier.
    for supplier in ctx.suppliers_of(candidate) {
        let neighbour = ctx.neighbour(supplier);
        if neighbour.rate <= 0.0 {
            continue;
        }
        let t_trans = 1.0 / neighbour.rate;
        let slot = supplier.slot as usize;
        let used = load[slot];
        if used + t_trans >= ctx.tau_secs {
            continue;
        }
        load[slot] = used + t_trans;
        current.push((candidate.id, neighbour.peer));
        search(
            ctx,
            priorities,
            index + 1,
            current,
            load,
            mass + priorities[index],
            best,
        );
        current.pop();
        load[slot] = used;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_core::{greedy_assign, AssignmentOrder, SessionView, SourceId, SupplierInfo};

    /// A switch context over `(id, [(peer, rate)])` candidates: `τ = 1 s`,
    /// `p = 10`, `I = 15`, `Q = 10`, `Qs = 50`, playback at 100, the old
    /// session `0..=199`, the new one from 200, `Q1 = 10`, `Q2 = 50`, every
    /// neighbour's `B = 600` and every supplier at position 100.  A peer
    /// has one row, at its first appearance.
    fn ctx(candidates: &[(u64, &[(PeerId, f64)])]) -> SchedulingContext {
        let mut ctx = SchedulingContext {
            tau_secs: 1.0,
            play_rate: 10.0,
            inbound_rate: 15.0,
            id_play: SegmentId(100),
            startup_q: 10,
            new_source_qs: 50,
            old_session: Some(SessionView {
                id: SourceId(0),
                first_segment: SegmentId(0),
                last_segment: Some(SegmentId(199)),
            }),
            new_session: Some(SessionView {
                id: SourceId(1),
                first_segment: SegmentId(200),
                last_segment: None,
            }),
            q1: 10,
            q2: 50,
            ..SchedulingContext::default()
        };
        for &(id, suppliers) in candidates {
            let suppliers: Vec<SupplierInfo> = suppliers
                .iter()
                .map(|&(peer, rate)| {
                    let slot = match ctx.neighbours.iter().position(|n| n.peer == peer) {
                        Some(slot) => slot as u32,
                        None => ctx.push_neighbour(peer, rate, 600),
                    };
                    SupplierInfo {
                        slot,
                        buffer_position: 100,
                    }
                })
                .collect();
            ctx.push_candidate(SegmentId(id), suppliers);
        }
        ctx
    }

    #[test]
    fn assigns_everything_when_capacity_allows() {
        let c = ctx(&[
            (101, &[(1, 10.0)]),
            (102, &[(2, 10.0)]),
            (103, &[(1, 10.0), (2, 10.0)]),
        ]);
        let best = optimal_assign(&c);
        assert_eq!(best.delivered, 3);
        assert_eq!(best.assigned.len(), 3);
    }

    #[test]
    fn respects_per_supplier_capacity() {
        // One supplier that fits only two segments per period.
        let c = ctx(&[(101, &[(1, 2.5)]), (102, &[(1, 2.5)]), (103, &[(1, 2.5)])]);
        let best = optimal_assign(&c);
        assert_eq!(best.delivered, 2);
    }

    #[test]
    fn beats_or_matches_a_greedy_trap() {
        // Greedy (by priority) sends the most urgent segment to the *fast*
        // supplier 2 even though only supplier 2 can serve the second
        // segment; the exact solver routes around that.
        let c = ctx(&[
            (101, &[(1, 1.5), (2, 3.0)]),
            (102, &[(2, 3.0)]),
            (103, &[(2, 3.0)]),
        ]);
        let greedy = greedy_assign(&c, AssignmentOrder::ByPriority);
        let exact = optimal_assign(&c);
        assert!(exact.delivered >= greedy.old.len() + greedy.new.len());
        assert_eq!(exact.delivered, 3);
    }

    #[test]
    fn exact_never_worse_than_greedy_on_small_instances() {
        // A small family of deterministic instances; supplier `s` has one
        // rate per instance and is shared by the candidates.
        for seed in 0..20u64 {
            let n = 2 + seed % 5;
            let rate = |s: u64| 1.5 + ((seed * 7 + s * 3) % 10) as f64;
            let suppliers: Vec<Vec<(PeerId, f64)>> = (0..n)
                .map(|k| {
                    (0..=(seed + k) % 3)
                        .map(|s| (s as PeerId + 1, rate(s)))
                        .collect()
                })
                .collect();
            let candidates: Vec<(u64, &[(PeerId, f64)])> = suppliers
                .iter()
                .enumerate()
                .map(|(k, s)| (101 + k as u64 * 7, s.as_slice()))
                .collect();
            let c = ctx(&candidates);
            let greedy = greedy_assign(&c, AssignmentOrder::ByPriority);
            let exact = optimal_assign(&c);
            assert!(
                exact.delivered >= greedy.old.len() + greedy.new.len(),
                "seed {seed}: exact {} < greedy {}",
                exact.delivered,
                greedy.old.len() + greedy.new.len()
            );
        }
    }

    #[test]
    fn empty_instance() {
        let best = optimal_assign(&ctx(&[]));
        assert_eq!(best.delivered, 0);
        assert!(best.assigned.is_empty());
        assert_eq!(best.priority_mass, 0.0);
    }

    #[test]
    #[should_panic(expected = "exact solver limited")]
    fn too_many_candidates_panics() {
        let candidates: Vec<(u64, &[(PeerId, f64)])> =
            (0..20u64).map(|i| (101 + i, &[(1, 10.0)][..])).collect();
        let _ = optimal_assign(&ctx(&candidates));
    }
}
