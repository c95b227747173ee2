//! Dynamic-environment churn model.
//!
//! §5.4 of the paper: "To create a dynamic network environment, we randomly
//! let 5% old nodes leave and 5% new nodes join per scheduling period."
//! Joining peers connect to `M` random existing peers and "start media
//! playback by following their neighbors' current steps"; that playback rule
//! lives in the gossip layer — this module only mutates the overlay.

use crate::bandwidth::BandwidthConfig;
use crate::builder::{Overlay, PeerAttrs};
use crate::error::OverlayError;
use crate::graph::PeerId;
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Applies per-period join/leave churn to an overlay.
#[derive(Debug, Clone)]
pub struct ChurnModel {
    /// Fraction of eligible peers leaving per period (paper: 0.05).
    pub leave_fraction: f64,
    /// Fraction of (pre-churn) peers joining per period (paper: 0.05).
    pub join_fraction: f64,
    /// Number of neighbours a joining peer connects to (paper: `M = 5`).
    pub join_degree: usize,
    /// Bandwidth distribution for joining peers.
    pub bandwidth: BandwidthConfig,
    /// Median ping of joining peers (milliseconds).
    pub join_ping_median_ms: f64,
    rng: SmallRng,
}

impl ChurnModel {
    /// Creates a churn model with the paper's 5 %/5 % defaults.
    pub fn paper_default(seed: u64) -> Self {
        ChurnModel {
            leave_fraction: 0.05,
            join_fraction: 0.05,
            join_degree: 5,
            bandwidth: BandwidthConfig::default(),
            join_ping_median_ms: 80.0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Creates a model with explicit fractions.
    ///
    /// # Panics
    /// Panics if a fraction is outside `[0, 1]` or not finite.
    pub fn new(leave_fraction: f64, join_fraction: f64, join_degree: usize, seed: u64) -> Self {
        assert!(
            (0.0..=1.0).contains(&leave_fraction) && leave_fraction.is_finite(),
            "leave_fraction must be in [0,1]"
        );
        assert!(
            (0.0..=1.0).contains(&join_fraction) && join_fraction.is_finite(),
            "join_fraction must be in [0,1]"
        );
        ChurnModel {
            leave_fraction,
            join_fraction,
            join_degree,
            bandwidth: BandwidthConfig::default(),
            join_ping_median_ms: 80.0,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// The departure half of one churn period: shuffles the eligible peers
    /// (all of `members` except `protected`) and removes the leave-fraction
    /// share of the population, appending the removed ids to `left`.
    ///
    /// `members` must list every active peer (callers with a membership
    /// view pass its member list).  The scratch vectors are cleared first
    /// and may be reused across calls.
    pub fn step_departures(
        &mut self,
        overlay: &mut Overlay,
        members: &[PeerId],
        protected: &[PeerId],
        eligible: &mut Vec<PeerId>,
        left: &mut Vec<PeerId>,
    ) -> Result<(), OverlayError> {
        eligible.clear();
        left.clear();
        eligible.extend(members.iter().copied().filter(|p| !protected.contains(p)));
        eligible.shuffle(&mut self.rng);
        let leave_count = ((members.len() as f64) * self.leave_fraction).round() as usize;
        let leave_count = leave_count.min(eligible.len());
        for &p in eligible.iter().take(leave_count) {
            overlay.remove_peer(p)?;
            left.push(p);
        }
        Ok(())
    }

    /// How many peers join this period, given the pre-churn population.
    pub fn join_count(&self, population: usize) -> usize {
        ((population as f64) * self.join_fraction).round() as usize
    }

    /// Draws one arrival: `pick_neighbours` samples the neighbour set with
    /// the model's RNG (first, matching the legacy draw order), then the
    /// ping and bandwidth attributes are sampled.
    pub fn draw_arrival(&mut self, pick_neighbours: impl FnOnce(&mut SmallRng)) -> PeerAttrs {
        pick_neighbours(&mut self.rng);
        let ping = self.join_ping_median_ms * self.rng.gen_range(0.5..2.0);
        PeerAttrs {
            ping_ms: ping,
            bandwidth: self.bandwidth.sample_peer(&mut self.rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::OverlayBuilder;
    use fss_trace::{GeneratorConfig, TraceGenerator};

    /// What happened during one churn step.
    #[derive(Debug)]
    struct ChurnEvent {
        /// Peers that left the overlay this period.
        left: Vec<PeerId>,
        /// Peers that joined the overlay this period.
        joined: Vec<PeerId>,
    }

    impl ChurnEvent {
        /// True when nothing changed.
        fn is_empty(&self) -> bool {
            self.left.is_empty() && self.joined.is_empty()
        }
    }

    impl ChurnModel {
        /// Applies one period of churn.  `protected` peers (the sources) never
        /// leave.  Returns the ids that left and joined.
        ///
        /// The reference of the decomposed halves: collects the candidate sets
        /// from the overlay itself, where the gossip layer drives
        /// `step_departures`, `join_count` and `draw_arrival` over its
        /// incremental membership view with the same RNG consumption.
        fn step(
            &mut self,
            overlay: &mut Overlay,
            protected: &[PeerId],
        ) -> Result<ChurnEvent, OverlayError> {
            let active: Vec<PeerId> = overlay.active_peers().collect();
            let population = active.len();

            let mut eligible = Vec::new();
            let mut left = Vec::new();
            self.step_departures(overlay, &active, protected, &mut eligible, &mut left)?;

            let join_count = self.join_count(population);
            let mut joined = Vec::with_capacity(join_count);
            for _ in 0..join_count {
                let candidates: Vec<PeerId> = overlay.active_peers().collect();
                if candidates.is_empty() {
                    break;
                }
                let degree = self.join_degree.min(candidates.len());
                let mut neighbours = Vec::with_capacity(degree);
                let attrs = self.draw_arrival(|rng| {
                    neighbours.extend(candidates.choose_multiple(rng, degree).copied())
                });
                let id = overlay.add_peer(attrs, &neighbours)?;
                joined.push(id);
            }

            Ok(ChurnEvent { left, joined })
        }
    }

    fn overlay(n: usize, seed: u64) -> Overlay {
        let trace = TraceGenerator::new(GeneratorConfig::sized(n, seed)).generate("churn-test");
        OverlayBuilder::paper_default().build(&trace).unwrap()
    }

    #[test]
    fn five_percent_leave_and_join() {
        let mut o = overlay(1_000, 1);
        let mut churn = ChurnModel::paper_default(42);
        let event = churn.step(&mut o, &[]).unwrap();
        assert_eq!(event.left.len(), 50);
        assert_eq!(event.joined.len(), 50);
        assert_eq!(o.active_count(), 1_000);
        assert!(!event.is_empty());
    }

    #[test]
    fn protected_peers_never_leave() {
        let mut o = overlay(200, 2);
        let sources: Vec<PeerId> = o.active_peers().take(2).collect();
        let mut churn = ChurnModel::paper_default(7);
        for _ in 0..20 {
            let event = churn.step(&mut o, &sources).unwrap();
            for s in &sources {
                assert!(!event.left.contains(s));
                assert!(o.graph().is_active(*s));
            }
        }
    }

    #[test]
    fn joining_peers_get_join_degree_neighbours() {
        let mut o = overlay(300, 3);
        let mut churn = ChurnModel::paper_default(9);
        let event = churn.step(&mut o, &[]).unwrap();
        for &j in &event.joined {
            // Later joiners may also attach to this peer, so the degree is at
            // least (not exactly) the join degree.
            assert!(o.graph().degree(j) >= 5);
            assert!(o.attrs(j).is_some());
            assert!(o.latency().access_delay_ms(j) > 0.0);
        }
    }

    #[test]
    fn zero_fractions_are_a_no_op() {
        let mut o = overlay(100, 4);
        let before = o.active_count();
        let mut churn = ChurnModel::new(0.0, 0.0, 5, 1);
        let event = churn.step(&mut o, &[]).unwrap();
        assert!(event.is_empty());
        assert_eq!(o.active_count(), before);
    }

    #[test]
    fn population_stays_stable_over_many_periods() {
        let mut o = overlay(500, 5);
        let mut churn = ChurnModel::paper_default(11);
        for _ in 0..30 {
            churn.step(&mut o, &[]).unwrap();
        }
        assert_eq!(o.active_count(), 500);
        // Ids keep growing, old slots stay allocated.
        assert!(o.graph().capacity() > 500);
    }

    #[test]
    #[should_panic(expected = "leave_fraction")]
    fn invalid_fraction_panics() {
        let _ = ChurnModel::new(1.5, 0.05, 5, 1);
    }

    /// The decomposed halves (used by the gossip layer's membership
    /// directory) must consume the RNG exactly like the standalone
    /// [`ChurnModel::step`]: identical leavers, identical joiner attach
    /// sets, for the same seed.
    #[test]
    fn decomposed_halves_match_step_exactly() {
        use rand::seq::SliceRandom;

        let mut reference_overlay = overlay(150, 7);
        let mut reference_churn = ChurnModel::paper_default(21);
        let mut decomposed_overlay = overlay(150, 7);
        let mut decomposed_churn = ChurnModel::paper_default(21);
        let protected: Vec<PeerId> = reference_overlay.active_peers().take(1).collect();

        let mut eligible = Vec::new();
        let mut left = Vec::new();
        for _ in 0..10 {
            let reference_event = reference_churn
                .step(&mut reference_overlay, &protected)
                .unwrap();

            let members: Vec<PeerId> = decomposed_overlay.active_peers().collect();
            decomposed_churn
                .step_departures(
                    &mut decomposed_overlay,
                    &members,
                    &protected,
                    &mut eligible,
                    &mut left,
                )
                .unwrap();
            assert_eq!(left, reference_event.left);

            let join_count = decomposed_churn.join_count(members.len());
            let mut joined = Vec::new();
            for _ in 0..join_count {
                let candidates: Vec<PeerId> = decomposed_overlay.active_peers().collect();
                let degree = decomposed_churn.join_degree.min(candidates.len());
                let mut neighbours = Vec::new();
                let attrs = decomposed_churn.draw_arrival(|rng| {
                    neighbours.extend(candidates.choose_multiple(rng, degree).copied())
                });
                joined.push(decomposed_overlay.add_peer(attrs, &neighbours).unwrap());
            }
            assert_eq!(joined, reference_event.joined);
        }
        assert_eq!(reference_overlay, decomposed_overlay);
    }

    #[test]
    fn departures_do_not_disconnect_the_core() {
        let mut o = overlay(400, 6);
        let source = o.active_peers().next().unwrap();
        let mut churn = ChurnModel::paper_default(13);
        for _ in 0..10 {
            churn.step(&mut o, &[source]).unwrap();
        }
        let reachable = o.graph().reachable_from(source);
        assert!(
            reachable as f64 >= 0.9 * o.active_count() as f64,
            "source reaches only {reachable} of {}",
            o.active_count()
        );
    }
}
