//! Memory-footprint aggregation across systems.
//!
//! `fss-gossip` meters each system's per-peer protocol state as a raw
//! [`MemUsage`] (integer byte counts, surfaced in `SystemReport::mem`);
//! [`MemSummary`] condenses one or many of those — e.g. every channel of a
//! multi-channel session — into the numbers experiments and benches record:
//! total active peers, average/maximum bytes per peer, the ring / window /
//! sequence-array breakdown, and the saving versus the pre-compaction
//! layout.  The ROADMAP's million-user north star budgets memory *per
//! viewer*, so bytes/peer is reported alongside throughput in
//! `BENCH_period.json` and guarded by `crates/bench/tests/mem_budget.rs`.

use fss_gossip::MemUsage;

/// Aggregated per-peer memory footprint over one or more streaming systems.
///
/// Deterministic: built by summing the systems' integer [`MemUsage`]
/// counters in order, so reports containing it stay byte-comparable across
/// worker counts and run-ahead bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemSummary {
    /// Number of systems (channels) aggregated.
    pub systems: usize,
    /// Active peers across all systems.
    pub active_peers: usize,
    /// Allocated peer slots across all systems (including departed peers).
    pub peer_slots: usize,
    /// Total protocol-state bytes of the active peers.
    pub peer_state_bytes: u64,
    /// Arrival-ring share of `peer_state_bytes`.
    pub ring_bytes: u64,
    /// Availability-window share of `peer_state_bytes`.
    pub window_bytes: u64,
    /// Sequence-array share of `peer_state_bytes`.
    pub seq_bytes: u64,
    /// The single largest peer footprint observed.
    pub max_peer_bytes: u64,
    /// What the same state would cost in the pre-compaction layout
    /// (u64 ring entries, u32 seqs).
    pub legacy_peer_state_bytes: u64,
    /// Average bytes per active peer (0 when no peers).
    pub avg_bytes_per_peer: f64,
    /// Fractional saving versus the pre-compaction layout on the same
    /// state (`1 − compact/legacy`; 0 when empty).
    pub reduction_vs_legacy: f64,
}

impl MemSummary {
    /// Aggregates the usages of several systems (channels).
    pub fn from_usages(usages: &[MemUsage]) -> MemSummary {
        let mut total = MemUsage::default();
        for usage in usages {
            total.peer_slots += usage.peer_slots;
            total.active_peers += usage.active_peers;
            total.peer_bytes += usage.peer_bytes;
            total.ring_bytes += usage.ring_bytes;
            total.window_bytes += usage.window_bytes;
            total.seq_bytes += usage.seq_bytes;
            total.max_peer_bytes = total.max_peer_bytes.max(usage.max_peer_bytes);
            total.legacy_peer_bytes += usage.legacy_peer_bytes;
        }
        MemSummary {
            systems: usages.len(),
            active_peers: total.active_peers,
            peer_slots: total.peer_slots,
            peer_state_bytes: total.peer_bytes,
            ring_bytes: total.ring_bytes,
            window_bytes: total.window_bytes,
            seq_bytes: total.seq_bytes,
            max_peer_bytes: total.max_peer_bytes,
            legacy_peer_state_bytes: total.legacy_peer_bytes,
            avg_bytes_per_peer: total.bytes_per_peer(),
            reduction_vs_legacy: total.reduction_vs_legacy(),
        }
    }

    /// The summary of a single system.
    pub fn from_usage(usage: MemUsage) -> MemSummary {
        Self::from_usages(&[usage])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_gossip::BufferMemBreakdown;

    fn usage(peers: usize, ring: usize, window: usize, seq: usize) -> MemUsage {
        let mut usage = MemUsage {
            peer_slots: peers,
            ..MemUsage::default()
        };
        for _ in 0..peers {
            usage.add_peer(
                64,
                BufferMemBreakdown {
                    ring_bytes: ring,
                    window_bytes: window,
                    seq_bytes: seq,
                },
            );
        }
        usage
    }

    #[test]
    fn summary_aggregates_channels() {
        let a = usage(10, 400, 80, 200);
        let b = usage(30, 400, 80, 200);
        let summary = MemSummary::from_usages(&[a, b]);
        assert_eq!(summary.systems, 2);
        assert_eq!(summary.active_peers, 40);
        assert_eq!(summary.peer_slots, 40);
        assert_eq!(summary.peer_state_bytes, 40 * (64 + 680));
        assert_eq!(summary.ring_bytes, 40 * 400);
        assert_eq!(summary.max_peer_bytes, 64 + 680);
        assert_eq!(summary.legacy_peer_state_bytes, 40 * 1344);
        assert!((summary.avg_bytes_per_peer - 744.0).abs() < 1e-9);
        // Legacy doubles ring and seqs: 64 + 800 + 80 + 400 = 1344.
        assert!((summary.reduction_vs_legacy - (1.0 - 744.0 / 1344.0)).abs() < 1e-9);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let summary = MemSummary::from_usages(&[]);
        assert_eq!(summary.systems, 0);
        assert_eq!(summary.active_peers, 0);
        assert_eq!(summary.avg_bytes_per_peer, 0.0);
        assert_eq!(summary.reduction_vs_legacy, 0.0);
    }

    #[test]
    fn single_usage_matches_slice_of_one() {
        let u = usage(5, 100, 50, 60);
        assert_eq!(MemSummary::from_usage(u), MemSummary::from_usages(&[u]));
    }
}
