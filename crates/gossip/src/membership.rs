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
//! sync on every join/depart), so a repair pass allocates nothing.  It still
//! costs O(channel): it reads the degree of every member, in member order,
//! on each `depart_batch`/`admit_batch`.  That order fixes the repair RNG
//! stream, so skipping healthy members would need a list of the
//! under-connected ones kept in the same order.

use fss_overlay::{Overlay, OverlayError, PeerId};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Repairs neighbour sets after churn.
#[derive(Debug, Clone)]
pub struct MembershipMaintainer {
    /// Target minimum neighbour count (the paper's `M`).
    min_degree: usize,
    rng: SmallRng,
}

impl MembershipMaintainer {
    /// Creates a maintainer targeting `min_degree` neighbours per node.
    pub fn new(min_degree: usize, seed: u64) -> Self {
        MembershipMaintainer {
            min_degree,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The target minimum degree.
    pub fn min_degree(&self) -> usize {
        self.min_degree
    }

    /// Reconnects every under-connected active peer to randomly chosen active
    /// peers until it has at least `min_degree` neighbours (or no more
    /// distinct peers exist).  Returns the number of edges added.
    ///
    /// `active` must list every active peer of the overlay — callers pass
    /// their membership view's member list (ascending id, the same order a
    /// fresh `active_peers()` collection would yield, so the repair RNG
    /// stream is unchanged from the pre-directory implementation).
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
        if active.len() < 2 {
            return Ok(0);
        }
        let mut added = 0;
        for &peer in active {
            let mut attempts = 0;
            let max_attempts = 20 * self.min_degree.max(1) * 4;
            while overlay.graph().degree(peer) < self.min_degree.min(active.len() - 1)
                && attempts < max_attempts
            {
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
        }
        Ok(added)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directory::{sample_distinct, SampleScratch};
    use fss_overlay::{ChurnModel, OverlayBuilder};
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
            churn
                .step_departures(&mut o, &before, &[], &mut eligible, &mut left)
                .unwrap();
            for _ in 0..churn.join_count(before.len()) {
                let candidates = members(&o);
                let degree = churn.join_degree.min(candidates.len());
                neighbours.clear();
                let attrs = churn.draw_arrival(|rng| {
                    sample_distinct(&candidates, rng, degree, &mut sampler, &mut neighbours)
                });
                o.add_peer(attrs, &neighbours).unwrap();
            }
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
}
