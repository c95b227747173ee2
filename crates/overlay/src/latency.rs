//! Pairwise latency model.
//!
//! The paper uses the trace ping times as its only latency information.  We
//! model the one-way latency between two overlay neighbours as half the sum
//! of their measured ping RTT halves — i.e. each peer contributes half of its
//! own access RTT — which is the standard "last-mile dominates" approximation
//! for peer-to-peer overlays of that era.

use crate::graph::PeerId;

/// Stores per-peer access delay and answers pairwise latency queries.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyModel {
    /// One-way access delay per peer in milliseconds (half the measured ping).
    access_ms: Vec<f64>,
}

impl LatencyModel {
    /// Builds the model from per-peer ping RTTs (milliseconds), indexed by
    /// [`PeerId`].
    pub fn from_pings(pings_ms: &[f64]) -> Self {
        LatencyModel {
            access_ms: pings_ms.iter().map(|p| (p / 2.0).max(0.0)).collect(),
        }
    }

    /// Number of peers known to the model.
    pub fn len(&self) -> usize {
        self.access_ms.len()
    }

    /// True when the model holds no peers.
    pub fn is_empty(&self) -> bool {
        self.access_ms.is_empty()
    }

    /// Registers a newly joined peer and returns its index (== its
    /// [`PeerId`] if callers register peers in id order, which the builder and
    /// churn model do).
    pub fn push_peer(&mut self, ping_ms: f64) -> usize {
        self.access_ms.push((ping_ms / 2.0).max(0.0));
        self.access_ms.len() - 1
    }

    /// One-way access delay of a peer in milliseconds (0 for unknown peers).
    #[inline]
    pub fn access_delay_ms(&self, peer: PeerId) -> f64 {
        self.access_ms.get(peer as usize).copied().unwrap_or(0.0)
    }

    /// One-way latency between two peers in milliseconds.
    #[inline]
    pub fn one_way_ms(&self, a: PeerId, b: PeerId) -> f64 {
        self.access_delay_ms(a) + self.access_delay_ms(b)
    }

    /// Round-trip latency between two peers in milliseconds.
    #[inline]
    pub fn round_trip_ms(&self, a: PeerId, b: PeerId) -> f64 {
        2.0 * self.one_way_ms(a, b)
    }

    /// Largest one-way access delay over all peers (milliseconds; 0 when
    /// empty).  The network model sizes its in-flight horizon from this.
    pub fn max_access_ms(&self) -> f64 {
        self.access_ms.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_from_pings() {
        let m = LatencyModel::from_pings(&[100.0, 50.0, 0.0]);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.access_delay_ms(0), 50.0);
        assert_eq!(m.access_delay_ms(1), 25.0);
        assert_eq!(m.access_delay_ms(2), 0.0);
    }

    #[test]
    fn pairwise_latency_is_symmetric() {
        let m = LatencyModel::from_pings(&[100.0, 60.0]);
        assert_eq!(m.one_way_ms(0, 1), m.one_way_ms(1, 0));
        assert_eq!(m.one_way_ms(0, 1), 80.0);
        assert_eq!(m.round_trip_ms(0, 1), 160.0);
    }

    #[test]
    fn unknown_peers_have_zero_delay() {
        let m = LatencyModel::from_pings(&[40.0]);
        assert_eq!(m.access_delay_ms(9), 0.0);
        assert_eq!(m.one_way_ms(0, 9), 20.0);
    }

    #[test]
    fn negative_pings_clamp_to_zero() {
        let m = LatencyModel::from_pings(&[-10.0]);
        assert_eq!(m.access_delay_ms(0), 0.0);
    }

    #[test]
    fn push_peer_extends_the_model() {
        let mut m = LatencyModel::from_pings(&[10.0]);
        let idx = m.push_peer(30.0);
        assert_eq!(idx, 1);
        assert_eq!(m.access_delay_ms(1), 15.0);
    }

    #[test]
    fn empty_model_mean_is_zero() {
        assert!(LatencyModel::default().is_empty());
    }

    #[test]
    fn self_links_cost_twice_the_access_delay() {
        // A "self link" still traverses the peer's access twice (out and
        // back in) under the last-mile model; it is never free unless the
        // peer's own access is.
        let m = LatencyModel::from_pings(&[100.0, 0.0]);
        assert_eq!(m.one_way_ms(0, 0), 100.0);
        assert_eq!(m.round_trip_ms(0, 0), 200.0);
        assert_eq!(m.one_way_ms(1, 1), 0.0);
    }

    #[test]
    fn asymmetric_access_delays_split_the_path_cost() {
        // A fast peer talking to a slow one pays the slow side's access in
        // both directions; the pairwise figures stay symmetric even though
        // the per-peer contributions are not.
        let m = LatencyModel::from_pings(&[10.0, 300.0]);
        assert_eq!(m.access_delay_ms(0), 5.0);
        assert_eq!(m.access_delay_ms(1), 150.0);
        assert_eq!(m.one_way_ms(0, 1), 155.0);
        assert_eq!(m.one_way_ms(1, 0), 155.0);
        assert_eq!(m.round_trip_ms(0, 1), 310.0);
    }

    #[test]
    fn zero_and_max_ping_entries_stay_finite() {
        let m = LatencyModel::from_pings(&[0.0, f64::MAX]);
        assert_eq!(m.access_delay_ms(0), 0.0);
        assert!(m.access_delay_ms(1).is_finite());
        assert_eq!(m.access_delay_ms(1), f64::MAX / 2.0);
        assert!(m.one_way_ms(0, 1).is_finite());
        assert_eq!(m.max_access_ms(), f64::MAX / 2.0);
    }

    #[test]
    fn max_access_tracks_the_slowest_peer() {
        assert_eq!(LatencyModel::default().max_access_ms(), 0.0);
        let mut m = LatencyModel::from_pings(&[40.0, 90.0]);
        assert_eq!(m.max_access_ms(), 45.0);
        m.push_peer(200.0);
        assert_eq!(m.max_access_ms(), 100.0);
    }
}
