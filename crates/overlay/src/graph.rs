//! Dynamic undirected overlay graph.

use crate::error::OverlayError;

/// Identifier of a peer in the overlay.
///
/// Ids are dense and stable: a peer that leaves keeps its id (marked
/// inactive) and newly joining peers receive fresh ids, so metric series
/// recorded per peer never get reattributed during churn.
pub type PeerId = u32;

/// An undirected graph with stable peer ids and O(1) membership checks.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OverlayGraph {
    /// `adjacency[p]` lists the active neighbours of peer `p`.
    adjacency: Vec<Vec<PeerId>>,
    /// Whether the peer is currently part of the overlay.
    active: Vec<bool>,
    /// Number of active peers.
    active_count: usize,
    /// Number of undirected edges between active peers.
    edge_count: usize,
}

impl OverlayGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` initially active, unconnected peers.
    pub fn with_peers(n: usize) -> Self {
        OverlayGraph {
            adjacency: vec![Vec::new(); n],
            active: vec![true; n],
            active_count: n,
            edge_count: 0,
        }
    }

    /// Total ids ever allocated (active + departed).
    pub fn capacity(&self) -> usize {
        self.adjacency.len()
    }

    /// Number of currently active peers.
    pub fn active_count(&self) -> usize {
        self.active_count
    }

    /// Number of undirected edges between active peers.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// True when `peer` exists and is active.
    #[inline]
    pub fn is_active(&self, peer: PeerId) -> bool {
        self.active.get(peer as usize).copied().unwrap_or(false)
    }

    /// Iterator over the ids of all active peers.
    pub fn active_peers(&self) -> impl Iterator<Item = PeerId> + '_ {
        self.active
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| i as PeerId)
    }

    /// Adds a new active peer and returns its id.
    pub fn add_peer(&mut self) -> PeerId {
        let id = self.adjacency.len() as PeerId;
        self.adjacency.push(Vec::new());
        self.active.push(true);
        self.active_count += 1;
        id
    }

    /// Adds an undirected edge.  Duplicate edges and self loops are ignored.
    ///
    /// Returns `true` when a new edge was actually inserted.
    pub fn add_edge(&mut self, a: PeerId, b: PeerId) -> Result<bool, OverlayError> {
        if !self.is_active(a) {
            return Err(OverlayError::UnknownPeer { peer: a });
        }
        if !self.is_active(b) {
            return Err(OverlayError::UnknownPeer { peer: b });
        }
        if a == b || self.adjacency[a as usize].contains(&b) {
            return Ok(false);
        }
        self.adjacency[a as usize].push(b);
        self.adjacency[b as usize].push(a);
        self.edge_count += 1;
        Ok(true)
    }

    /// True when an edge between `a` and `b` exists (both active).
    #[cfg(test)]
    pub fn has_edge(&self, a: PeerId, b: PeerId) -> bool {
        self.is_active(a) && self.is_active(b) && self.adjacency[a as usize].contains(&b)
    }

    /// The active neighbours of `peer`.
    #[inline]
    pub fn neighbors(&self, peer: PeerId) -> &[PeerId] {
        if self.is_active(peer) {
            &self.adjacency[peer as usize]
        } else {
            &[]
        }
    }

    /// Degree of an active peer (0 for inactive/unknown peers).
    #[inline]
    pub fn degree(&self, peer: PeerId) -> usize {
        self.neighbors(peer).len()
    }

    /// Minimum degree over all active peers (`None` when the graph is empty).
    pub fn min_degree(&self) -> Option<usize> {
        self.active_peers().map(|p| self.degree(p)).min()
    }

    /// Mean degree over active peers.
    pub fn average_degree(&self) -> f64 {
        if self.active_count == 0 {
            0.0
        } else {
            2.0 * self.edge_count as f64 / self.active_count as f64
        }
    }

    /// Removes a peer from the overlay, detaching it from all neighbours.
    /// The id remains allocated but inactive.
    pub fn remove_peer(&mut self, peer: PeerId) -> Result<(), OverlayError> {
        if !self.is_active(peer) {
            return Err(OverlayError::UnknownPeer { peer });
        }
        let neighbours = std::mem::take(&mut self.adjacency[peer as usize]);
        for n in &neighbours {
            let list = &mut self.adjacency[*n as usize];
            if let Some(pos) = list.iter().position(|&x| x == peer) {
                list.swap_remove(pos);
                self.edge_count -= 1;
            }
        }
        self.active[peer as usize] = false;
        self.active_count -= 1;
        Ok(())
    }

    /// Number of active peers reachable from `start` (including itself), via
    /// breadth-first search.  Used to check streaming connectivity.
    pub fn reachable_from(&self, start: PeerId) -> usize {
        if !self.is_active(start) {
            return 0;
        }
        let mut visited = vec![false; self.adjacency.len()];
        let mut queue = std::collections::VecDeque::new();
        visited[start as usize] = true;
        queue.push_back(start);
        let mut count = 0;
        while let Some(p) = queue.pop_front() {
            count += 1;
            for &n in &self.adjacency[p as usize] {
                if !visited[n as usize] {
                    visited[n as usize] = true;
                    queue.push_back(n);
                }
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_edges_and_query() {
        let mut g = OverlayGraph::with_peers(4);
        assert!(g.add_edge(0, 1).unwrap());
        assert!(g.add_edge(1, 2).unwrap());
        assert!(!g.add_edge(1, 0).unwrap(), "duplicate edge ignored");
        assert!(!g.add_edge(2, 2).unwrap(), "self loop ignored");
        assert_eq!(g.edge_count(), 2);
        assert!(g.has_edge(0, 1));
        assert!(g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.min_degree(), Some(0));
        assert!((g.average_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_peer_errors() {
        let mut g = OverlayGraph::with_peers(2);
        assert_eq!(
            g.add_edge(0, 5).unwrap_err(),
            OverlayError::UnknownPeer { peer: 5 }
        );
        assert_eq!(
            g.remove_peer(5).unwrap_err(),
            OverlayError::UnknownPeer { peer: 5 }
        );
        assert!(!g.is_active(5));
        assert_eq!(g.neighbors(5), &[] as &[PeerId]);
    }

    #[test]
    fn removal_detaches_and_preserves_ids() {
        let mut g = OverlayGraph::with_peers(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.remove_peer(1).unwrap();

        assert_eq!(g.active_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert!(!g.is_active(1));
        assert!(g.is_active(0) && g.is_active(2));
        assert_eq!(g.degree(0), 0);
        // Removing twice errors.
        assert!(g.remove_peer(1).is_err());
        // Ids of other peers are untouched.
        assert_eq!(g.active_peers().collect::<Vec<_>>(), vec![0, 2]);
    }

    #[test]
    fn joining_after_leave_gets_fresh_id() {
        let mut g = OverlayGraph::with_peers(2);
        g.remove_peer(0).unwrap();
        let id = g.add_peer();
        assert_eq!(id, 2);
        assert_eq!(g.capacity(), 3);
        assert_eq!(g.active_count(), 2);
        g.add_edge(id, 1).unwrap();
        assert_eq!(g.degree(id), 1);
    }

    #[test]
    fn reachability_counts_components() {
        let mut g = OverlayGraph::with_peers(5);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        g.add_edge(3, 4).unwrap();
        assert_eq!(g.reachable_from(0), 3);
        assert_eq!(g.reachable_from(3), 2);
        assert_eq!(g.reachable_from(9), 0);
        g.remove_peer(1).unwrap();
        assert_eq!(g.reachable_from(0), 1);
    }

    #[test]
    fn empty_graph_edge_cases() {
        let g = OverlayGraph::new();
        assert_eq!(g.active_count(), 0);
        assert_eq!(g.min_degree(), None);
        assert_eq!(g.average_degree(), 0.0);
        assert_eq!(g.active_peers().count(), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// Edge count equals half the degree sum and removals never corrupt it.
        #[test]
        fn prop_degree_sum_invariant(
            edges in proptest::collection::vec((0u32..30, 0u32..30), 0..200),
            removals in proptest::collection::vec(0u32..30, 0..10),
        ) {
            let mut g = OverlayGraph::with_peers(30);
            for (a, b) in edges {
                let _ = g.add_edge(a, b);
            }
            for r in removals {
                let _ = g.remove_peer(r);
            }
            let degree_sum: usize = g.active_peers().map(|p| g.degree(p)).sum();
            proptest::prop_assert_eq!(degree_sum, 2 * g.edge_count());
            // Neighbour lists are symmetric.
            for p in g.active_peers() {
                for &n in g.neighbors(p) {
                    proptest::prop_assert!(g.neighbors(n).contains(&p));
                    proptest::prop_assert!(g.is_active(n));
                }
            }
        }
    }
}
