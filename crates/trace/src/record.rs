//! The in-memory trace representation.

/// Identifier of a node inside a trace (dense, 0-based: its index).
pub type NodeId = u32;

/// An overlay trace: one ping time per node plus the undirected overlay
/// edges observed between the nodes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Human readable name (e.g. `"clip2-synth-1000-a"`).
    pub name: String,
    /// Measured ping round-trip time of each node in milliseconds, indexed
    /// by node id.
    pub ping_ms: Vec<f64>,
    /// Undirected edges as `(smaller id, larger id)` pairs.  Generated
    /// traces hold them sorted and deduplicated; the overlay's adjacency
    /// order follows this order.
    pub edges: Vec<(NodeId, NodeId)>,
}

impl Trace {
    /// Number of nodes in the trace.
    pub fn node_count(&self) -> usize {
        self.ping_ms.len()
    }

    /// Per-node degree histogram (index = node id).
    #[cfg(test)]
    pub fn degrees(&self) -> Vec<usize> {
        let mut deg = vec![0usize; self.node_count()];
        for &(a, b) in &self.edges {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        deg
    }
}
