//! Neighbour-set maintenance under churn.
//!
//! The gossip membership protocol the paper builds on (Ganesh et al.,
//! "Peer-to-peer membership management for gossip-based protocols") keeps
//! every node's partial view populated as peers come and go.  The simulator
//! does not need the full protocol machinery — the overlay graph *is* the
//! ground truth — but it does need its effect: after departures, nodes whose
//! neighbour count fell below `M` acquire replacement neighbours, otherwise a
//! long dynamic run slowly disconnects the mesh and the churn experiments
//! measure an artefact instead of the switch algorithm.
//!
//! The maintainer is a **directory client**: it never enumerates the
//! overlay itself — the caller hands it the channel's live member list
//! (the [`crate::directory::MembershipView`] the streaming system keeps in
//! sync on every join/depart), so a repair pass allocates nothing once its
//! lists are warm.  A repair costs what changed, not O(channel): the first
//! one visits every member, and each later one visits, in ascending id
//! order, only the members whose degree fell since the previous repair
//! (the neighbours of departed peers, noted by
//! [`remove_peer`](MembershipMaintainer::remove_peer)), the members that
//! joined since then ([`note_joined`](MembershipMaintainer::note_joined))
//! and the members the previous repair left below `min_degree`.  Degrees
//! only grow inside a repair, so every other member is at `min_degree` or
//! above and the full scan would draw nothing for it: the visit order, the
//! RNG stream and the edges added are exactly the full scan's (a
//! differential test keeps the full scan as its oracle).

use fss_overlay::{Overlay, OverlayError, PeerId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Repairs neighbour sets after churn.
#[derive(Debug, Clone)]
pub struct MembershipMaintainer {
    /// Target minimum neighbour count (the paper's `M`).
    min_degree: usize,
    /// Candidate draws per visited member before it is given up on.
    max_attempts: usize,
    rng: SmallRng,
    /// Whether a repair has visited every member yet; until then nothing
    /// is noted, so a system that never repairs keeps empty lists.
    scanned: bool,
    /// Members whose degree fell, and members that joined, since the last
    /// repair (unsorted, may repeat or name departed peers).
    touched: Vec<PeerId>,
    /// Members the last repair left below `min_degree`, ascending.
    leftover: Vec<PeerId>,
}

impl MembershipMaintainer {
    /// Creates a maintainer targeting `min_degree` neighbours per node.
    pub fn new(min_degree: usize, seed: u64) -> Self {
        MembershipMaintainer {
            min_degree,
            max_attempts: 20 * min_degree.max(1) * 4,
            rng: SmallRng::seed_from_u64(seed),
            scanned: false,
            touched: Vec::new(),
            leftover: Vec::new(),
        }
    }

    /// The target minimum degree.
    pub fn min_degree(&self) -> usize {
        self.min_degree
    }

    /// Removes `peer` from `overlay`, noting its neighbours (whose degree
    /// falls) for the next repair.
    pub fn remove_peer(&mut self, overlay: &mut Overlay, peer: PeerId) -> Result<(), OverlayError> {
        if self.scanned {
            self.touched.extend_from_slice(overlay.neighbors(peer));
        }
        overlay.remove_peer(peer)
    }

    /// Notes peers that joined the overlay since the last repair.
    pub fn note_joined(&mut self, joined: &[PeerId]) {
        if self.scanned {
            self.touched.extend_from_slice(joined);
        }
    }

    /// The touched list's length and capacity and the leftover list's
    /// capacity.
    #[cfg(test)]
    pub(crate) fn list_sizes(&self) -> (usize, usize, usize) {
        (
            self.touched.len(),
            self.touched.capacity(),
            self.leftover.capacity(),
        )
    }

    /// Reconnects every under-connected active peer to randomly chosen active
    /// peers until it has at least `min_degree` neighbours (or no more
    /// distinct peers exist).  Returns the number of edges added.
    ///
    /// `active` must list every active peer of the overlay in ascending id
    /// order — callers pass their membership view's member list — and every
    /// departure and join since the previous repair must have gone through
    /// [`remove_peer`](Self::remove_peer) and
    /// [`note_joined`](Self::note_joined).  Only the members those could
    /// have left under-connected are visited (see the module doc).
    pub fn repair(
        &mut self,
        overlay: &mut Overlay,
        active: &[PeerId],
    ) -> Result<usize, OverlayError> {
        debug_assert_eq!(
            active.len(),
            overlay.active_count(),
            "the membership view is out of sync with the overlay"
        );
        let mut visit = std::mem::take(&mut self.touched);
        let members: &[PeerId] = if self.scanned {
            visit.extend_from_slice(&self.leftover);
            visit.sort_unstable();
            visit.dedup();
            &visit
        } else {
            active
        };
        self.scanned = true;
        self.leftover.clear();
        let mut added = 0;
        for &peer in members {
            if !overlay.graph().is_active(peer) {
                continue;
            }
            added += self.connect(overlay, active, peer)?;
            if overlay.graph().degree(peer) < self.min_degree {
                self.leftover.push(peer);
            }
        }
        visit.clear();
        self.touched = visit;
        #[cfg(debug_assertions)]
        self.check_leftover(overlay, active);
        Ok(added)
    }

    /// Draws candidates for one member until it reaches
    /// `min(min_degree, |active| − 1)` neighbours or runs out of attempts.
    fn connect(
        &mut self,
        overlay: &mut Overlay,
        active: &[PeerId],
        peer: PeerId,
    ) -> Result<usize, OverlayError> {
        if active.len() < 2 {
            return Ok(0);
        }
        let target = self.min_degree.min(active.len() - 1);
        let mut added = 0;
        let mut attempts = 0;
        while overlay.graph().degree(peer) < target && attempts < self.max_attempts {
            attempts += 1;
            let Some(&candidate) = active.choose(&mut self.rng) else {
                break;
            };
            if candidate == peer {
                continue;
            }
            if overlay.graph_mut().add_edge(peer, candidate)? {
                added += 1;
            }
        }
        Ok(added)
    }

    /// Every active member below `min_degree` is on the leftover list, so
    /// the next repair visits it.
    #[cfg(debug_assertions)]
    fn check_leftover(&self, overlay: &Overlay, active: &[PeerId]) {
        for &peer in active {
            debug_assert!(
                overlay.graph().degree(peer) >= self.min_degree
                    || self.leftover.binary_search(&peer).is_ok(),
                "peer {peer} is below min_degree but off the leftover list"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::{sample_distinct, SampleScratch};
    use fss_overlay::{ChurnModel, OverlayBuilder, PeerAttrs};
    use fss_trace::{GeneratorConfig, TraceGenerator};

    fn overlay(n: usize, seed: u64) -> Overlay {
        let trace = TraceGenerator::new(GeneratorConfig::sized(n, seed)).generate("membership");
        OverlayBuilder::paper_default().build(&trace).unwrap()
    }

    /// The member list a directory view would hand the maintainer.
    fn members(o: &Overlay) -> Vec<PeerId> {
        o.active_peers().collect()
    }

    #[test]
    fn repair_restores_min_degree_after_churn() {
        let mut o = overlay(300, 1);
        let mut churn = ChurnModel::paper_default(5);
        let mut maintainer = MembershipMaintainer::new(5, 9);
        let (mut eligible, mut left, mut neighbours) = (Vec::new(), Vec::new(), Vec::new());
        let mut sampler = SampleScratch::default();
        for _ in 0..20 {
            // One churn period through the halves the system drives.
            let before = members(&o);
            churn.choose_departures(&before, &[], &mut eligible, &mut left);
            for &p in &left {
                maintainer.remove_peer(&mut o, p).unwrap();
            }
            let mut joined = Vec::new();
            for _ in 0..churn.join_count(before.len()) {
                let candidates = members(&o);
                let degree = churn.join_degree.min(candidates.len());
                neighbours.clear();
                let attrs = churn.draw_arrival(|rng| {
                    sample_distinct(&candidates, rng, degree, &mut sampler, &mut neighbours)
                });
                joined.push(o.add_peer(attrs, &neighbours).unwrap());
            }
            maintainer.note_joined(&joined);
            let active = members(&o);
            maintainer.repair(&mut o, &active).unwrap();
            assert!(o.graph().min_degree().unwrap() >= 5);
        }
    }

    #[test]
    fn repair_is_a_noop_on_a_healthy_overlay() {
        let mut o = overlay(200, 2);
        let before_edges = o.graph().edge_count();
        let active = members(&o);
        let added = MembershipMaintainer::new(5, 1)
            .repair(&mut o, &active)
            .unwrap();
        assert_eq!(added, 0);
        assert_eq!(o.graph().edge_count(), before_edges);
    }

    #[test]
    fn repair_counts_added_edges() {
        let mut o = overlay(100, 3);
        // Remove a chunk of peers so survivors lose neighbours.
        let victims: Vec<PeerId> = o.active_peers().take(30).collect();
        for v in victims {
            o.remove_peer(v).unwrap();
        }
        let mut maintainer = MembershipMaintainer::new(5, 4);
        let active = members(&o);
        let added = maintainer.repair(&mut o, &active).unwrap();
        assert!(added > 0);
        assert!(o.graph().min_degree().unwrap() >= 5);
        assert_eq!(maintainer.min_degree(), 5);
    }

    #[test]
    fn tiny_overlays_do_not_loop_forever() {
        let mut o = overlay(10, 4);
        // Leave only 3 active peers.
        let victims: Vec<PeerId> = o.active_peers().skip(3).collect();
        for v in victims {
            o.remove_peer(v).unwrap();
        }
        let mut maintainer = MembershipMaintainer::new(5, 6);
        let active = members(&o);
        maintainer.repair(&mut o, &active).unwrap();
        // Degree is capped by the number of other peers.
        for p in o.active_peers().collect::<Vec<_>>() {
            assert!(o.graph().degree(p) <= 2);
        }
    }

    /// The repair as it stood before touched-only visiting: every member,
    /// in member order.  The oracle of the differential tests.
    fn full_scan(
        min_degree: usize,
        max_attempts: usize,
        rng: &mut SmallRng,
        overlay: &mut Overlay,
        active: &[PeerId],
    ) -> usize {
        if active.len() < 2 {
            return 0;
        }
        let mut added = 0;
        for &peer in active {
            let mut attempts = 0;
            while overlay.graph().degree(peer) < min_degree.min(active.len() - 1)
                && attempts < max_attempts
            {
                attempts += 1;
                let Some(&candidate) = active.choose(rng) else {
                    break;
                };
                if candidate == peer {
                    continue;
                }
                if overlay.graph_mut().add_edge(peer, candidate).unwrap() {
                    added += 1;
                }
            }
        }
        added
    }

    /// One random history of departure batches, admission batches, churn
    /// periods and channel shrinks, each followed by a repair, applied to
    /// two copies of one overlay: one repaired touched-only, the other by
    /// the full scan with its own copy of the RNG.  After every repair the
    /// two overlays (edge lists in insertion order) and the counts of added
    /// edges are equal, and so is the next draw of both RNGs.
    fn differential_case(case: u64) {
        use fss_overlay::PeerBandwidth;
        use rand::Rng;

        let mut dice = SmallRng::seed_from_u64(case);
        let mut fast = overlay(dice.gen_range(8..100), case);
        let mut slow = fast.clone();
        let min_degree = dice.gen_range(1..8);
        let seed = dice.gen::<u64>();
        let mut maintainer = MembershipMaintainer::new(min_degree, seed);
        // A third of the cases give up after one or two draws, so members
        // are left below `min_degree` on a channel large enough to host them.
        if case.is_multiple_of(3) {
            maintainer.max_attempts = dice.gen_range(1..3);
        }
        let max_attempts = maintainer.max_attempts;
        let mut oracle = SmallRng::seed_from_u64(seed);

        for _ in 0..dice.gen_range(1..32) {
            let active = members(&fast);
            let mut departing: Vec<PeerId> = Vec::new();
            let mut arrivals = 0;
            match dice.gen_range(0..8) {
                // A departure batch.
                0 | 1 => {
                    let count = dice.gen_range(1..8);
                    departing = active.choose_multiple(&mut dice, count).copied().collect();
                }
                // An admission batch.
                2 | 3 => arrivals = dice.gen_range(1..10),
                // A churn period: departures, then arrivals.
                4 | 5 => {
                    let count = dice.gen_range(0..5);
                    departing = active.choose_multiple(&mut dice, count).copied().collect();
                    arrivals = dice.gen_range(0..5);
                }
                // Shrink the channel to at most `min_degree` members.
                6 => {
                    let keep = dice.gen_range(1..=min_degree);
                    departing = active.iter().skip(keep).copied().collect();
                    departing.shuffle(&mut dice);
                }
                // A repair with nothing changed.
                _ => {}
            }
            for &p in &departing {
                maintainer.remove_peer(&mut fast, p).unwrap();
                slow.remove_peer(p).unwrap();
            }
            let mut joined = Vec::new();
            for _ in 0..arrivals {
                let candidates = members(&fast);
                let degree = dice.gen_range(0..=4usize).min(candidates.len());
                let neighbours: Vec<PeerId> = candidates
                    .choose_multiple(&mut dice, degree)
                    .copied()
                    .collect();
                let attrs = PeerAttrs {
                    ping_ms: 80.0,
                    bandwidth: PeerBandwidth {
                        inbound: 15.0,
                        outbound: 15.0,
                    },
                };
                joined.push(fast.add_peer(attrs, &neighbours).unwrap());
                slow.add_peer(attrs, &neighbours).unwrap();
            }
            maintainer.note_joined(&joined);

            let active = members(&fast);
            let added = maintainer.repair(&mut fast, &active).unwrap();
            let expected = full_scan(min_degree, max_attempts, &mut oracle, &mut slow, &active);
            assert_eq!(added, expected, "case {case}: edges added");
            assert_eq!(fast, slow, "case {case}: overlays differ");
            assert_eq!(
                maintainer.rng.clone().gen::<u64>(),
                oracle.clone().gen::<u64>(),
                "case {case}: the RNG streams diverged"
            );
            assert!(maintainer.touched.is_empty());
        }
    }

    #[test]
    fn touched_only_repair_matches_the_full_scan() {
        for case in 0..32 {
            differential_case(case);
        }
    }

    /// The 1,000-case soak of the differential test.
    #[test]
    #[ignore = "soak: cargo test -p fss-gossip -- --ignored touched_only_repair"]
    fn touched_only_repair_matches_the_full_scan_soak() {
        for case in 0..1_000 {
            differential_case(case);
        }
    }

    #[test]
    fn nothing_is_noted_before_the_first_repair() {
        let mut o = overlay(60, 7);
        let mut maintainer = MembershipMaintainer::new(5, 1);
        for p in members(&o).into_iter().take(10) {
            maintainer.remove_peer(&mut o, p).unwrap();
        }
        maintainer.note_joined(&[3, 4]);
        assert!(maintainer.touched.is_empty() && maintainer.leftover.is_empty());
        let active = members(&o);
        maintainer.repair(&mut o, &active).unwrap();
        assert!(o.graph().min_degree().unwrap() >= 5);
    }
}
