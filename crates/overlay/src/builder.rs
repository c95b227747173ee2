//! Overlay construction from a crawl trace.
//!
//! The builder performs the paper's preparation step (§5.1): take the trace
//! topology, then "add random edges into each overlay to let every node hold
//! M = 5 connected neighbors", and assign every peer its inbound/outbound
//! segment rates.

#![expect(
    clippy::expect_used,
    reason = "paper_default() builds from the compile-time default config, which the unit tests prove valid"
)]

use crate::bandwidth::{BandwidthConfig, PeerBandwidth};
use crate::error::OverlayError;
use crate::graph::{OverlayGraph, PeerId};
use crate::latency::LatencyModel;
use fss_trace::Trace;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Static attributes of one peer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeerAttrs {
    /// Measured ping RTT (milliseconds), from the trace or sampled for
    /// joining peers.
    pub ping_ms: f64,
    /// Assigned bandwidth (segments/second).
    pub bandwidth: PeerBandwidth,
}

/// Configuration of the overlay construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverlayConfig {
    /// Minimum number of neighbours every peer must hold (paper: `M = 5`).
    pub min_degree: usize,
    /// Bandwidth distribution.
    pub bandwidth: BandwidthConfig,
    /// Seed for edge augmentation and bandwidth assignment.
    pub seed: u64,
}

impl Default for OverlayConfig {
    fn default() -> Self {
        OverlayConfig {
            min_degree: 5,
            bandwidth: BandwidthConfig::default(),
            seed: 0x5EED_0E11,
        }
    }
}

/// The fully constructed overlay: topology + per-peer attributes + latency.
#[derive(Debug, Clone, PartialEq)]
pub struct Overlay {
    /// Name of the trace this overlay was built from.
    pub name: String,
    graph: OverlayGraph,
    attrs: Vec<PeerAttrs>,
    latency: LatencyModel,
    config: OverlayConfig,
}

impl Overlay {
    /// The overlay topology.
    pub fn graph(&self) -> &OverlayGraph {
        &self.graph
    }

    /// Mutable access to the topology (used by the churn model).
    pub fn graph_mut(&mut self) -> &mut OverlayGraph {
        &mut self.graph
    }

    /// The latency model.
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// The configuration the overlay was built with.
    pub fn config(&self) -> &OverlayConfig {
        &self.config
    }

    /// Attributes of a peer.
    pub fn attrs(&self, peer: PeerId) -> Option<&PeerAttrs> {
        self.attrs.get(peer as usize)
    }

    /// Number of currently active peers.
    pub fn active_count(&self) -> usize {
        self.graph.active_count()
    }

    /// Iterator over active peer ids.
    pub fn active_peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.graph.active_peers()
    }

    /// Active neighbours of a peer.
    #[inline]
    pub fn neighbors(&self, peer: PeerId) -> &[PeerId] {
        self.graph.neighbors(peer)
    }

    /// Overrides the bandwidth of one peer.  Used to install sources (zero
    /// inbound, large outbound).
    pub fn set_bandwidth(
        &mut self,
        peer: PeerId,
        bandwidth: PeerBandwidth,
    ) -> Result<(), OverlayError> {
        match self.attrs.get_mut(peer as usize) {
            Some(a) => {
                a.bandwidth = bandwidth;
                Ok(())
            }
            None => Err(OverlayError::UnknownPeer { peer }),
        }
    }

    /// Adds a freshly joined peer with the given attributes and connects it to
    /// `neighbors`.  Returns its new id.
    ///
    /// Every neighbour must be active.  An unknown or departed one is
    /// rejected before anything is allocated, so an `Err` leaves the overlay
    /// unchanged.
    pub fn add_peer(
        &mut self,
        attrs: PeerAttrs,
        neighbors: &[PeerId],
    ) -> Result<PeerId, OverlayError> {
        if let Some(&peer) = neighbors.iter().find(|&&n| !self.graph.is_active(n)) {
            return Err(OverlayError::UnknownPeer { peer });
        }
        let id = self.graph.add_peer();
        self.attrs.push(attrs);
        self.latency.push_peer(attrs.ping_ms);
        for &n in neighbors {
            self.graph.add_edge(id, n)?;
        }
        Ok(id)
    }

    /// Removes a peer (departure).  Attributes stay recorded for metrics.
    pub fn remove_peer(&mut self, peer: PeerId) -> Result<(), OverlayError> {
        self.graph.remove_peer(peer)
    }
}

/// Builds an [`Overlay`] from a [`Trace`].
#[derive(Debug, Clone)]
pub struct OverlayBuilder {
    config: OverlayConfig,
}

impl OverlayBuilder {
    /// Creates a builder.
    pub fn new(config: OverlayConfig) -> Result<Self, OverlayError> {
        config.bandwidth.validate()?;
        if config.min_degree == 0 {
            return Err(OverlayError::InvalidBandwidth {
                message: "min_degree must be at least 1".into(),
            });
        }
        Ok(OverlayBuilder { config })
    }

    /// Builder with the paper's default parameters.
    pub fn paper_default() -> Self {
        OverlayBuilder::new(OverlayConfig::default()).expect("default config is valid")
    }

    /// Builds the overlay: copies the trace topology, augments it so every
    /// peer has at least `min_degree` neighbours and samples bandwidths.
    pub fn build(&self, trace: &Trace) -> Result<Overlay, OverlayError> {
        let n = trace.node_count();
        if n <= self.config.min_degree {
            return Err(OverlayError::DegreeUnachievable {
                requested: self.config.min_degree,
                peers: n,
            });
        }

        let mut rng = SmallRng::seed_from_u64(self.config.seed);
        let mut graph = OverlayGraph::with_peers(n);

        // A trace node's id is its index, so it names its peer directly; an
        // edge to a missing node is `UnknownPeer`, and `add_edge` ignores
        // self loops and duplicates.
        for &(a, b) in &trace.edges {
            graph.add_edge(a, b)?;
        }

        augment_to_min_degree(&mut graph, self.config.min_degree, &mut rng)?;

        let attrs: Vec<PeerAttrs> = trace
            .ping_ms
            .iter()
            .map(|&ping_ms| PeerAttrs {
                ping_ms,
                bandwidth: self.config.bandwidth.sample_peer(&mut rng),
            })
            .collect();
        let latency = LatencyModel::from_pings(&trace.ping_ms);

        Ok(Overlay {
            name: trace.name.clone(),
            graph,
            attrs,
            latency,
            config: self.config,
        })
    }
}

/// Adds random edges until every active peer has at least `min_degree`
/// neighbours, mirroring the paper's augmentation step.
pub(crate) fn augment_to_min_degree(
    graph: &mut OverlayGraph,
    min_degree: usize,
    rng: &mut SmallRng,
) -> Result<(), OverlayError> {
    let peers: Vec<PeerId> = graph.active_peers().collect();
    if peers.len() <= min_degree {
        return Err(OverlayError::DegreeUnachievable {
            requested: min_degree,
            peers: peers.len(),
        });
    }
    for &p in &peers {
        let mut guard = 0;
        while graph.degree(p) < min_degree {
            let candidate = peers[rng.gen_range(0..peers.len())];
            // `add_edge` ignores self loops and duplicates, returning false.
            let _ = graph.add_edge(p, candidate)?;
            guard += 1;
            if guard > 100 * min_degree * peers.len() {
                // Unreachable in practice; protects against pathological RNG
                // behaviour turning into an infinite loop.
                return Err(OverlayError::DegreeUnachievable {
                    requested: min_degree,
                    peers: peers.len(),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_trace::{GeneratorConfig, TraceGenerator};

    fn trace(n: usize, seed: u64) -> Trace {
        TraceGenerator::new(GeneratorConfig::sized(n, seed)).generate(format!("t{n}"))
    }

    #[test]
    fn build_reaches_min_degree_five() {
        let overlay = OverlayBuilder::paper_default()
            .build(&trace(500, 1))
            .unwrap();
        assert_eq!(overlay.active_count(), 500);
        assert!(overlay.graph().min_degree().unwrap() >= 5);
        assert_eq!(overlay.name, "t500");
    }

    #[test]
    fn build_is_deterministic() {
        let b = OverlayBuilder::paper_default();
        let t = trace(300, 9);
        assert_eq!(b.build(&t).unwrap(), b.build(&t).unwrap());
    }

    #[test]
    fn bandwidths_are_sampled_in_range() {
        let overlay = OverlayBuilder::paper_default()
            .build(&trace(400, 2))
            .unwrap();
        for p in overlay.active_peers() {
            let bw = overlay.attrs(p).unwrap().bandwidth;
            assert!(bw.inbound >= 10.0 && bw.inbound <= 33.0);
            assert!(bw.outbound >= 10.0 && bw.outbound <= 33.0);
        }
    }

    #[test]
    fn overlay_is_connected_enough_for_streaming() {
        let overlay = OverlayBuilder::paper_default()
            .build(&trace(1_000, 3))
            .unwrap();
        let start = overlay.active_peers().next().unwrap();
        let reachable = overlay.graph().reachable_from(start);
        assert!(
            reachable as f64 >= 0.99 * overlay.active_count() as f64,
            "only {reachable} of {} peers reachable",
            overlay.active_count()
        );
    }

    #[test]
    fn too_small_trace_is_rejected() {
        let err = OverlayBuilder::paper_default()
            .build(&trace(4, 1))
            .unwrap_err();
        assert!(matches!(err, OverlayError::DegreeUnachievable { .. }));
    }

    #[test]
    fn invalid_configs_are_rejected_at_construction() {
        let cfg = OverlayConfig {
            min_degree: 0,
            ..OverlayConfig::default()
        };
        assert!(OverlayBuilder::new(cfg).is_err());
        let mut cfg = OverlayConfig::default();
        cfg.bandwidth.mean_rate = 5.0;
        assert!(OverlayBuilder::new(cfg).is_err());
    }

    #[test]
    fn set_bandwidth_installs_a_source() {
        let mut overlay = OverlayBuilder::paper_default()
            .build(&trace(100, 4))
            .unwrap();
        let source = overlay.active_peers().next().unwrap();
        let src_bw = overlay.config().bandwidth.source_peer();
        overlay.set_bandwidth(source, src_bw).unwrap();
        assert_eq!(overlay.attrs(source).unwrap().bandwidth.inbound, 0.0);
        assert!(overlay.set_bandwidth(9_999, src_bw).is_err());
    }

    #[test]
    fn add_and_remove_peers_dynamically() {
        let mut overlay = OverlayBuilder::paper_default()
            .build(&trace(50, 5))
            .unwrap();
        let neighbours: Vec<PeerId> = overlay.active_peers().take(5).collect();
        let attrs = PeerAttrs {
            ping_ms: 70.0,
            bandwidth: PeerBandwidth {
                inbound: 15.0,
                outbound: 12.0,
            },
        };
        let id = overlay.add_peer(attrs, &neighbours).unwrap();
        assert_eq!(overlay.graph().degree(id), 5);
        assert_eq!(overlay.attrs(id).unwrap().ping_ms, 70.0);
        assert_eq!(overlay.latency().access_delay_ms(id), 35.0);

        overlay.remove_peer(id).unwrap();
        assert!(!overlay.graph().is_active(id));
        // Attribute history is preserved for metrics.
        assert!(overlay.attrs(id).is_some());
    }

    #[test]
    fn rejected_add_leaves_the_overlay_unchanged() {
        let mut overlay = OverlayBuilder::paper_default()
            .build(&trace(30, 6))
            .unwrap();
        let mut hosts: Vec<PeerId> = overlay.active_peers().take(3).collect();
        let gone = hosts.pop().unwrap();
        overlay.remove_peer(gone).unwrap();
        let attrs = *overlay.attrs(hosts[0]).unwrap();
        let (capacity, active, edges) = (
            overlay.graph().capacity(),
            overlay.active_count(),
            overlay.graph().edge_count(),
        );
        for neighbours in [vec![hosts[0], gone], vec![hosts[1], 9_999]] {
            assert!(overlay.add_peer(attrs, &neighbours).is_err());
            assert_eq!(overlay.graph().capacity(), capacity);
            assert_eq!(overlay.active_count(), active);
            assert_eq!(overlay.graph().edge_count(), edges);
        }
        // The next valid arrival takes the id the rejected ones did not.
        assert_eq!(overlay.add_peer(attrs, &hosts).unwrap() as usize, capacity);
    }

    /// `Trace`'s fields are public, so a hand-built trace reaches the
    /// builder unchecked: the builder itself rejects it or builds a sound
    /// graph, and never panics.
    #[test]
    fn hand_built_traces_are_checked_by_the_builder() {
        let builder = OverlayBuilder::paper_default();
        let hand_built = |nodes: usize, edges: Vec<(u32, u32)>| Trace {
            name: "hand".into(),
            ping_ms: vec![80.0; nodes],
            edges,
        };

        let err = builder.build(&hand_built(8, vec![(0, 9)])).unwrap_err();
        assert_eq!(err, OverlayError::UnknownPeer { peer: 9 });

        let overlay = builder
            .build(&hand_built(8, vec![(3, 3), (1, 2), (2, 1), (1, 2)]))
            .unwrap();
        let graph = overlay.graph();
        assert_eq!(overlay.active_count(), 8);
        assert!(graph.min_degree().unwrap() >= 5);
        for p in overlay.active_peers() {
            let mut row = graph.neighbors(p).to_vec();
            assert!(!row.contains(&p), "peer {p} holds a self loop");
            row.sort_unstable();
            row.dedup();
            assert_eq!(row.len(), graph.degree(p), "peer {p} holds a duplicate");
        }

        let err = builder.build(&hand_built(0, vec![])).unwrap_err();
        assert!(matches!(
            err,
            OverlayError::DegreeUnachievable { peers: 0, .. }
        ));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(10))]
        /// Whatever the trace size/seed, the built overlay always satisfies
        /// the minimum-degree contract.
        #[test]
        fn prop_min_degree_always_met(n in 10usize..300, seed in 0u64..500) {
            let overlay = OverlayBuilder::paper_default().build(&trace(n, seed)).unwrap();
            proptest::prop_assert!(overlay.graph().min_degree().unwrap() >= 5);
        }
    }
}
