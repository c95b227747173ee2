//! Trace records and the in-memory trace representation.

use crate::error::TraceError;
#[cfg(test)]
use crate::speed::AccessSpeed;
#[cfg(test)]
use fss_sim::hasher::FxHashMap;
use fss_sim::hasher::FxHashSet;
use std::fmt;
use std::net::Ipv4Addr;

/// Identifier of a node inside a trace (dense, 0-based).
pub type NodeId = u32;

/// One crawled peer, with the fields recorded by the clip2 crawls.
///
/// The paper lists "each node's ID, IP, host name, port, ping time, speed and
/// so on, but we just use the ID, IP and ping time information".
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRecord {
    /// Dense node identifier.
    pub id: NodeId,
    /// IPv4 address of the peer.
    pub ip: Ipv4Addr,
    /// Reverse-DNS host name (possibly synthetic).
    pub host: String,
    /// Gnutella servent port (6346 was the default of the era).
    pub port: u16,
    /// Measured ping round-trip time in milliseconds.
    pub ping_ms: f64,
    /// Self-reported access link speed in kbit/s.
    pub speed_kbps: u32,
}

#[cfg(test)]
impl TraceRecord {
    /// The access-speed class closest to the advertised speed.
    pub fn speed_class(&self) -> AccessSpeed {
        AccessSpeed::from_kbps(self.speed_kbps)
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} {} {:.1} {}",
            self.id, self.ip, self.host, self.port, self.ping_ms, self.speed_kbps
        )
    }
}

/// A complete overlay trace: peers plus the undirected overlay edges observed
/// between them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Human readable name (e.g. `"clip2-synth-1000-a"`).
    pub name: String,
    /// The peers, indexed by their dense id.
    pub nodes: Vec<TraceRecord>,
    /// Undirected edges as `(smaller id, larger id)` pairs, deduplicated.
    pub edges: Vec<(NodeId, NodeId)>,
}

impl Trace {
    /// Creates a validated trace.
    ///
    /// Validation rules:
    /// * at least one node,
    /// * node ids are unique,
    /// * edges reference existing nodes and contain no self loops.
    ///
    /// Edges are normalised to `(min, max)` order and deduplicated.
    pub fn new(
        name: impl Into<String>,
        nodes: Vec<TraceRecord>,
        edges: Vec<(NodeId, NodeId)>,
    ) -> Result<Self, TraceError> {
        if nodes.is_empty() {
            return Err(TraceError::Empty);
        }
        let mut seen = FxHashSet::default();
        seen.reserve(nodes.len());
        for n in &nodes {
            if !seen.insert(n.id) {
                return Err(TraceError::DuplicateNode { node: n.id });
            }
        }
        let mut normalised: Vec<(NodeId, NodeId)> = Vec::with_capacity(edges.len());
        for (a, b) in edges {
            if a == b {
                return Err(TraceError::SelfLoop { node: a });
            }
            if !seen.contains(&a) {
                return Err(TraceError::UnknownNode { node: a });
            }
            if !seen.contains(&b) {
                return Err(TraceError::UnknownNode { node: b });
            }
            normalised.push((a.min(b), a.max(b)));
        }
        normalised.sort_unstable();
        normalised.dedup();
        Ok(Trace {
            name: name.into(),
            nodes,
            edges: normalised,
        })
    }

    /// Number of peers in the trace.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of (deduplicated, undirected) edges in the trace.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Mean node degree of the base topology.
    pub fn average_degree(&self) -> f64 {
        if self.nodes.is_empty() {
            0.0
        } else {
            2.0 * self.edges.len() as f64 / self.nodes.len() as f64
        }
    }

    /// Per-node degree histogram (index = node id position in `nodes`).
    #[cfg(test)]
    pub fn degrees(&self) -> Vec<usize> {
        let index_of: FxHashMap<NodeId, usize> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (n.id, i))
            .collect();
        let mut deg = vec![0usize; self.nodes.len()];
        for &(a, b) in &self.edges {
            deg[index_of[&a]] += 1;
            deg[index_of[&b]] += 1;
        }
        deg
    }

    /// Looks up a record by node id.
    pub fn record(&self, id: NodeId) -> Option<&TraceRecord> {
        self.nodes.iter().find(|n| n.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    pub(crate) fn record(id: NodeId) -> TraceRecord {
        TraceRecord {
            id,
            ip: Ipv4Addr::new(10, 0, (id >> 8) as u8, (id & 0xff) as u8),
            host: format!("peer{id}.example.net"),
            port: 6346,
            ping_ms: 80.0,
            speed_kbps: 768,
        }
    }

    #[test]
    fn valid_trace_normalises_edges() {
        let t = Trace::new(
            "t",
            vec![record(0), record(1), record(2)],
            vec![(1, 0), (2, 1), (0, 1)],
        )
        .unwrap();
        assert_eq!(t.edges, vec![(0, 1), (1, 2)]);
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.edge_count(), 2);
        assert!((t.average_degree() - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn degrees_count_both_endpoints() {
        let t = Trace::new(
            "t",
            vec![record(0), record(1), record(2)],
            vec![(0, 1), (0, 2)],
        )
        .unwrap();
        assert_eq!(t.degrees(), vec![2, 1, 1]);
    }

    #[test]
    fn empty_trace_rejected() {
        assert_eq!(Trace::new("t", vec![], vec![]), Err(TraceError::Empty));
    }

    #[test]
    fn duplicate_node_rejected() {
        let err = Trace::new("t", vec![record(3), record(3)], vec![]).unwrap_err();
        assert_eq!(err, TraceError::DuplicateNode { node: 3 });
    }

    #[test]
    fn unknown_edge_endpoint_rejected() {
        let err = Trace::new("t", vec![record(0), record(1)], vec![(0, 9)]).unwrap_err();
        assert_eq!(err, TraceError::UnknownNode { node: 9 });
    }

    #[test]
    fn self_loop_rejected() {
        let err = Trace::new("t", vec![record(0)], vec![(0, 0)]).unwrap_err();
        assert_eq!(err, TraceError::SelfLoop { node: 0 });
    }

    #[test]
    fn record_lookup_and_speed_class() {
        let t = Trace::new("t", vec![record(0), record(5)], vec![]).unwrap();
        assert_eq!(t.record(5).unwrap().id, 5);
        assert!(t.record(6).is_none());
        assert_eq!(t.record(0).unwrap().speed_class(), AccessSpeed::Dsl);
    }

    #[test]
    fn display_round_trips_through_parser_format() {
        let r = record(12);
        let line = r.to_string();
        assert!(line.starts_with("12 10.0.0.12"));
        assert!(line.ends_with("768"));
    }
}
