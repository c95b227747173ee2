//! The cross-channel membership directory: per-channel membership views and
//! the shared admission samplers.
//!
//! A multi-channel deployment (the CliqueStream and live-entertainment
//! settings of PAPERS.md) needs switching viewers to locate partners in
//! their target channel *instantly* — the whole point of fast source
//! switching is lost if the join path first has to enumerate the channel.
//! Before this module existed, every zap batch re-collected the target
//! channel's entire `active_peers()` into a fresh `Vec` and sampled
//! neighbours from scratch: an allocation on the zap hot path and O(channel
//! size) work per arrival.
//!
//! The directory replaces that with **incrementally maintained views**:
//!
//! * [`MembershipView`] — one channel's membership, mirrored as a sorted
//!   (ascending [`PeerId`]) member list updated on every join/depart event
//!   (churn, zap arrivals/departures, external batches).  The sorted order is
//!   exactly the order `Overlay::active_peers()` yields, so samplers drawing
//!   from the view consume the *same RNG stream over the same candidate
//!   set* as the legacy collect-then-sample path — reports stay
//!   byte-identical (pinned by the `golden_report` tests in `fss-runtime`).
//! * [`select_movers`] and [`sample_neighbours`] — the shared join
//!   machinery: allocation-free sampling of movers and per-arrival
//!   neighbour sets out of pooled scratch buffers ([`AdmissionScratch`])
//!   for zap batches and flash-crowd storms, with churn joiners drawing
//!   from the same views through the same sampler; the session layer adds
//!   an optional **rate-limited
//!   admission queue** (`max_admits_per_period`) on top that spreads a
//!   flash crowd's joins over several period boundaries instead of one.
//! * [`sample_distinct`] — the allocation-free sampler underneath both: a
//!   sparse partial Fisher–Yates that reproduces `SliceRandom::
//!   choose_multiple`'s output (and RNG consumption) exactly, in
//!   O(amount) instead of O(slice) time and zero steady-state heap.
//!
//! Ownership: each [`StreamingSystem`](crate::StreamingSystem) owns the view
//! of its own channel and keeps it in sync as a side effect of every
//! membership event, so channels stepping concurrently (the pipelined
//! session manager) never share mutable state; the session layer reads a
//! view only at a zap-batch boundary, where the two endpoint channels are
//! synchronised anyway — directory reads are the *only* cross-channel
//! synchronisation points.

#![expect(
    clippy::expect_used,
    reason = "departure of a non-member is a membership-bookkeeping bug; the expect turns it into an immediate diagnostic instead of a corrupted member list"
)]

use crate::hasher::FxHashMap;
use fss_overlay::{PeerAttrs, PeerId};
use rand::rngs::SmallRng;
use rand::Rng;

/// One channel's membership view: the sorted member list newcomers sample
/// their partners from.
///
/// Updated incrementally on every membership event — O(log n) search plus
/// an O(n) shift per event instead of an O(n) collection *per zap batch*,
/// and no allocation once the backing vector reaches its high-water mark.
#[derive(Debug, Clone, Default)]
pub struct MembershipView {
    /// All active members, ascending by id (the same order
    /// `Overlay::active_peers()` iterates in).
    members: Vec<PeerId>,
}

impl MembershipView {
    /// Builds a view over an existing membership (need not be sorted).
    ///
    /// # Panics
    /// Panics if `members` names a peer twice.
    pub fn from_members(members: impl IntoIterator<Item = PeerId>) -> Self {
        let mut members: Vec<PeerId> = members.into_iter().collect();
        members.sort_unstable();
        assert!(
            members.windows(2).all(|pair| pair[0] != pair[1]),
            "peer joined twice"
        );
        MembershipView { members }
    }

    /// All active members, ascending by id.
    pub fn members(&self) -> &[PeerId] {
        &self.members
    }

    /// Number of active members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the channel has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// True when `peer` is a member.
    pub fn contains(&self, peer: PeerId) -> bool {
        self.members.binary_search(&peer).is_ok()
    }

    /// Registers a join.  Idempotence is deliberately *not* provided: every
    /// overlay membership event must be mirrored exactly once.
    ///
    /// # Panics
    /// Panics if `peer` is already a member.
    pub fn on_join(&mut self, peer: PeerId) {
        let at = self
            .members
            .binary_search(&peer)
            .expect_err("peer joined twice");
        self.members.insert(at, peer);
    }

    /// Registers a departure.
    ///
    /// # Panics
    /// Panics if `peer` is not a member.
    pub fn on_depart(&mut self, peer: PeerId) {
        let at = self
            .members
            .binary_search(&peer)
            .expect("departing peer is a member");
        self.members.remove(at);
    }
}

/// Pooled working memory of [`sample_distinct`]: the sparse displacement
/// table of the partial Fisher–Yates.  Reused across calls; zero heap once
/// it reaches its high-water capacity.
#[derive(Debug, Default)]
pub struct SampleScratch {
    displaced: FxHashMap<usize, usize>,
}

/// Appends `amount` distinct elements of `slice`, in random order, to `out`
/// (fewer when the slice is shorter) — the allocation-free equivalent of
/// `SliceRandom::choose_multiple`.
///
/// Byte-compatible with the vendored `choose_multiple`: it performs the
/// identical partial Fisher–Yates (`amount` draws of `gen_range(i..len)`)
/// but tracks only the displaced indices in a pooled hash map instead of
/// materialising the full `0..len` index table, cutting the per-call cost
/// from O(len) time + one allocation to O(amount) time and zero heap.  The
/// equivalence is asserted by this module's tests across sizes and seeds.
pub fn sample_distinct<T: Copy, R: Rng + ?Sized>(
    slice: &[T],
    rng: &mut R,
    amount: usize,
    scratch: &mut SampleScratch,
    out: &mut Vec<T>,
) {
    let amount = amount.min(slice.len());
    let displaced = &mut scratch.displaced;
    for i in 0..amount {
        let j = rng.gen_range(i..slice.len());
        // indices[k] of the dense algorithm, materialised lazily.
        let value_i = displaced.get(&i).copied().unwrap_or(i);
        let value_j = displaced.get(&j).copied().unwrap_or(j);
        displaced.insert(j, value_i);
        out.push(slice[value_j]);
    }
    displaced.clear();
}

/// Pooled buffers of one admission resolution — the working memory that
/// used to be freshly allocated per zap batch.
#[derive(Debug, Default)]
pub struct AdmissionScratch {
    /// Departure-eligible members of the origin channel.
    pub eligible: Vec<PeerId>,
    /// The movers drawn from `eligible`.
    pub movers: Vec<PeerId>,
    /// Per-arrival neighbour assignments, flattened (`degree` entries per
    /// arrival).
    pub neighbours: Vec<PeerId>,
    /// Per-arrival attributes, parallel to the neighbour groups.
    pub attrs: Vec<PeerAttrs>,
    /// Per-arrival request stamps (the period boundary each arrival asked
    /// to join at), parallel to `attrs`.
    pub requested: Vec<u64>,
    /// Ids assigned to the admitted arrivals.
    pub admitted: Vec<PeerId>,
    /// Sampler displacement table.
    pub sampler: SampleScratch,
}

impl AdmissionScratch {
    /// Clears every buffer, keeping capacity.
    pub fn clear(&mut self) {
        self.eligible.clear();
        self.movers.clear();
        self.neighbours.clear();
        self.attrs.clear();
        self.requested.clear();
        self.admitted.clear();
    }
}

/// Selects up to `requested` movers out of `view`, excluding `source`
/// and any peer `blocked` (same-boundary arrivals), respecting the live
/// survival floor (at least one non-source member stays behind).
///
/// Fills `scratch.eligible` and `scratch.movers`; consumes the same RNG
/// stream as the legacy filter-collect-`choose_multiple` path.
///
/// This and [`sample_neighbours`] are the admission side of zap batches
/// and flash-crowd storms: mover selection and per-arrival neighbour
/// assignment against a [`MembershipView`] instead of a fresh overlay
/// collection.  Churn joiners attach through the same views and the
/// same [`sample_distinct`] sampler (see `StreamingSystem::apply_churn`);
/// their departure side keeps the paper's shuffle-based eligibility
/// model in `ChurnModel`.  All working memory lives in the caller's
/// [`AdmissionScratch`]; rate limiting is the session layer's concern —
/// see `fss_runtime::SessionManager` — because deferral needs the
/// channel's period clock.
pub fn select_movers(
    view: &MembershipView,
    source: PeerId,
    mut blocked: impl FnMut(PeerId) -> bool,
    requested: usize,
    rng: &mut SmallRng,
    scratch: &mut AdmissionScratch,
) {
    scratch.eligible.clear();
    scratch.movers.clear();
    scratch.eligible.extend(
        view.members()
            .iter()
            .copied()
            .filter(|&p| p != source && !blocked(p)),
    );
    // Live survival floor: when every non-source member is eligible, one
    // must stay behind so the channel never drains to source-only
    // membership (same-boundary arrivals count as staying — present,
    // merely ineligible to move again this boundary).
    let non_source_present = view.len() - 1;
    let floor_reserve = usize::from(non_source_present == scratch.eligible.len());
    let quota = scratch.eligible.len().saturating_sub(floor_reserve);
    sample_distinct(
        &scratch.eligible,
        rng,
        requested.min(quota),
        &mut scratch.sampler,
        &mut scratch.movers,
    );
}

/// Draws one arrival's neighbour set from `view`'s members into
/// `scratch.neighbours` (appending `degree.min(view.len())` entries) and
/// returns how many were appended.
///
/// RNG-compatible with `members.choose_multiple(rng, degree)` over
/// the legacy collected member vector.
pub fn sample_neighbours(
    view: &MembershipView,
    degree: usize,
    rng: &mut SmallRng,
    scratch: &mut AdmissionScratch,
) -> usize {
    let take = degree.min(view.len());
    sample_distinct(
        view.members(),
        rng,
        take,
        &mut scratch.sampler,
        &mut scratch.neighbours,
    );
    take
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::seq::SliceRandom;
    use rand::SeedableRng;

    /// The satellite guarantee: the sparse sampler is a drop-in replacement
    /// for the vendored `choose_multiple` — identical picks *and* identical
    /// RNG consumption (the stream must stay aligned for everything sampled
    /// afterwards).
    #[test]
    fn sample_distinct_matches_choose_multiple_exactly() {
        let mut scratch = SampleScratch::default();
        for len in [0usize, 1, 2, 5, 17, 100, 1000] {
            let slice: Vec<PeerId> = (0..len as PeerId).map(|i| i * 3 + 1).collect();
            for amount in [0usize, 1, 2, 5, len / 2, len, len + 3] {
                for seed in 0..20u64 {
                    let mut reference_rng = SmallRng::seed_from_u64(seed);
                    let reference: Vec<PeerId> = slice
                        .choose_multiple(&mut reference_rng, amount)
                        .copied()
                        .collect();
                    let mut rng = SmallRng::seed_from_u64(seed);
                    let mut out = Vec::new();
                    sample_distinct(&slice, &mut rng, amount, &mut scratch, &mut out);
                    assert_eq!(out, reference, "len={len} amount={amount} seed={seed}");
                    // Post-sample draws must agree: the streams are aligned.
                    assert_eq!(rng.gen_range(0..1_000_000u64), {
                        reference_rng.gen_range(0..1_000_000u64)
                    });
                }
            }
        }
    }

    #[test]
    fn view_mirrors_membership_in_sorted_order() {
        let mut view = MembershipView::default();
        for p in [5u32, 1, 9, 3] {
            view.on_join(p);
        }
        assert_eq!(view.members(), &[1, 3, 5, 9]);
        assert!(view.contains(5));
        view.on_depart(5);
        assert_eq!(view.members(), &[1, 3, 9]);
        assert!(!view.contains(5));
        assert_eq!(view.len(), 3);
        assert_eq!(
            MembershipView::from_members([9u32, 1, 3]).members(),
            view.members()
        );
    }

    #[test]
    #[should_panic(expected = "joined twice")]
    fn double_join_panics() {
        let mut view = MembershipView::default();
        view.on_join(1);
        view.on_join(1);
    }

    #[test]
    #[should_panic(expected = "joined twice")]
    fn duplicate_initial_member_panics() {
        MembershipView::from_members([4u32, 2, 4]);
    }

    #[test]
    #[should_panic(expected = "is a member")]
    fn unknown_departure_panics() {
        let mut view = MembershipView::default();
        view.on_depart(7);
    }

    #[test]
    fn pipeline_selects_movers_with_the_survival_floor() {
        let view = MembershipView::from_members(0..6u32);
        let mut scratch = AdmissionScratch::default();
        let mut rng = SmallRng::seed_from_u64(1);
        // Ask for far more movers than the channel can give up: everyone but
        // the source is eligible, so the floor holds one back.
        select_movers(&view, 0, |_| false, 100, &mut rng, &mut scratch);
        assert_eq!(scratch.eligible.len(), 5);
        assert_eq!(scratch.movers.len(), 4, "one non-source member must stay");
        assert!(!scratch.movers.contains(&0), "the source never moves");

        // A blocked peer (same-boundary arrival) counts as staying, so the
        // floor reserve is not double-charged.
        let mut rng = SmallRng::seed_from_u64(2);
        select_movers(&view, 0, |p| p == 3, 100, &mut rng, &mut scratch);
        assert_eq!(scratch.eligible.len(), 4);
        assert_eq!(scratch.movers.len(), 4, "the blocked peer is the floor");
        assert!(!scratch.movers.contains(&3));

        // The same movers as the legacy path, which collected the eligible
        // peers and ran `choose_multiple` over them with the floor reserve:
        // below the quota, at it, just above it and far above it.
        let view = MembershipView::from_members(0..1_000u32);
        for requested in [12, 998, 999, 5_000] {
            let mut rng = SmallRng::seed_from_u64(77);
            select_movers(&view, 0, |_| false, requested, &mut rng, &mut scratch);

            let mut legacy_rng = SmallRng::seed_from_u64(77);
            let eligible: Vec<PeerId> = (1..1_000).collect();
            let quota = eligible.len() - 1;
            let legacy: Vec<PeerId> = eligible
                .choose_multiple(&mut legacy_rng, requested.min(quota))
                .copied()
                .collect();
            assert_eq!(scratch.movers, legacy, "requested={requested}");
            assert_eq!(
                rng.gen_range(0..1_000_000u64),
                legacy_rng.gen_range(0..1_000_000u64)
            );
        }
    }

    #[test]
    fn pipeline_neighbour_sampling_matches_the_legacy_path() {
        let members: Vec<PeerId> = (0..40).collect();
        let view = MembershipView::from_members(members.iter().copied());
        let mut scratch = AdmissionScratch::default();

        let mut rng = SmallRng::seed_from_u64(11);
        let taken = sample_neighbours(&view, 5, &mut rng, &mut scratch);
        assert_eq!(taken, 5);

        // Legacy path: collect + choose_multiple over the same candidates.
        let mut legacy_rng = SmallRng::seed_from_u64(11);
        let legacy: Vec<PeerId> = members
            .choose_multiple(&mut legacy_rng, 5)
            .copied()
            .collect();
        assert_eq!(scratch.neighbours, legacy);
    }
}
