//! The per-peer byte meter.
//!
//! The ROADMAP's million-user north star is bounded by **bytes per peer**:
//! every viewer the system hosts carries a [`FifoBuffer`] (arrival ring,
//! availability window, arrival-sequence array) plus a handful of scalar
//! protocol fields.  This module defines the [`MemUsage`] aggregate that
//! [`StreamingSystem::memory_usage`] builds from each active peer's
//! [`FifoBuffer::mem_breakdown`] and that
//! [`SystemReport`](crate::system::SystemReport) surfaces, so experiments
//! and benches can record bytes/peer next to throughput.  It is the
//! library's only memory meter; the process as a whole (scratch arenas,
//! calendars, the allocator's own overhead) is measured from outside, as
//! the benchmark's peak resident set.
//!
//! # What the meter covers
//!
//! [`MemUsage`] (and therefore `SystemReport::mem`) accounts the **per-peer
//! protocol state of active peers only**: it is a pure function of the
//! simulated protocol history, so it is byte-identical between the period
//! and its executable spec (`fss-spec`), across worker counts and stepping
//! modes — the equivalence suites assert reports equal, and this field must
//! never break them.  Execution-dependent memory (the
//! [`PeriodScratch`](crate::scratch::PeriodScratch) arena, whose
//! worker-slot count follows the configured parallelism) is deliberately
//! left out.
//!
//! All numbers count **reserved capacity**, not live length: capacity is
//! what the allocator actually holds, and the zero-allocation hot path keeps
//! capacities at their steady-state high-water marks.
//!
//! [`FifoBuffer`]: crate::buffer::FifoBuffer
//! [`FifoBuffer::mem_breakdown`]: crate::buffer::FifoBuffer::mem_breakdown
//! [`StreamingSystem::memory_usage`]: crate::system::StreamingSystem::memory_usage

/// Heap bytes of one peer's [`FifoBuffer`](crate::buffer::FifoBuffer),
/// split by component (the three allocations the compact layout shrinks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferMemBreakdown {
    /// The arrival ring: `u32` offsets from the window base (was full
    /// 8-byte `SegmentId`s before the compact layout).
    pub ring_bytes: usize,
    /// The availability bitmap words.
    pub window_bytes: usize,
    /// The per-covered-id arrival-sequence array: `u16` epoch-relative
    /// sequence numbers (was `u32`).
    pub seq_bytes: usize,
}

impl BufferMemBreakdown {
    /// Total heap bytes across the three components.
    pub fn heap_total(&self) -> usize {
        self.ring_bytes + self.window_bytes + self.seq_bytes
    }

    /// What the same capacities would cost in the pre-compaction layout
    /// (8-byte ring entries, 4-byte sequence numbers): the baseline the
    /// memory-budget guard measures the compact layout against.
    pub fn legacy_heap_total(&self) -> usize {
        2 * self.ring_bytes + self.window_bytes + 2 * self.seq_bytes
    }
}

/// Aggregate per-peer protocol-state footprint of one streaming system.
///
/// Built by [`StreamingSystem::memory_usage`] over the **active** peers (see
/// the module docs for what is and is not covered) and surfaced as
/// [`SystemReport::mem`].  All fields are integers, so report equality stays
/// exact.
///
/// [`StreamingSystem::memory_usage`]: crate::system::StreamingSystem::memory_usage
/// [`SystemReport::mem`]: crate::system::SystemReport::mem
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemUsage {
    /// Allocated peer slots, including departed peers (ids are never
    /// reused, so slots outlive their peers).
    pub peer_slots: usize,
    /// Active peers — the denominator of [`bytes_per_peer`](Self::bytes_per_peer).
    pub active_peers: usize,
    /// Total footprint of the active peers' protocol state (the inline
    /// record, [`PEER_INLINE_BYTES`](crate::store::PEER_INLINE_BYTES) each,
    /// plus buffer heap).
    pub peer_bytes: u64,
    /// Arrival-ring share of `peer_bytes`.
    pub ring_bytes: u64,
    /// Availability-window share of `peer_bytes`.
    pub window_bytes: u64,
    /// Sequence-array share of `peer_bytes`.
    pub seq_bytes: u64,
    /// The single largest active peer's footprint.
    pub max_peer_bytes: u64,
    /// What the same state would cost in the pre-compaction layout
    /// (u64 ring entries, u32 seqs).
    pub legacy_peer_bytes: u64,
}

impl MemUsage {
    /// Folds one active peer's buffer breakdown into the aggregate.
    pub fn add_peer(&mut self, inline_bytes: usize, buffer: BufferMemBreakdown) {
        let total = (inline_bytes + buffer.heap_total()) as u64;
        self.active_peers += 1;
        self.peer_bytes += total;
        self.ring_bytes += buffer.ring_bytes as u64;
        self.window_bytes += buffer.window_bytes as u64;
        self.seq_bytes += buffer.seq_bytes as u64;
        self.max_peer_bytes = self.max_peer_bytes.max(total);
        self.legacy_peer_bytes += (inline_bytes + buffer.legacy_heap_total()) as u64;
    }

    /// Average protocol-state bytes per active peer (0 when empty).
    pub fn bytes_per_peer(&self) -> f64 {
        if self.active_peers == 0 {
            0.0
        } else {
            self.peer_bytes as f64 / self.active_peers as f64
        }
    }

    /// Fractional saving of the compact layout versus the pre-compaction
    /// layout on the same state: `1 − compact/legacy` (0 when empty).
    pub fn reduction_vs_legacy(&self) -> f64 {
        if self.legacy_peer_bytes == 0 {
            0.0
        } else {
            1.0 - self.peer_bytes as f64 / self.legacy_peer_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn usage_accumulates_and_averages() {
        let mut usage = MemUsage::default();
        assert_eq!(usage.bytes_per_peer(), 0.0);
        assert_eq!(usage.reduction_vs_legacy(), 0.0);
        usage.peer_slots = 3;
        usage.add_peer(
            100,
            BufferMemBreakdown {
                ring_bytes: 400,
                window_bytes: 80,
                seq_bytes: 200,
            },
        );
        usage.add_peer(
            100,
            BufferMemBreakdown {
                ring_bytes: 200,
                window_bytes: 40,
                seq_bytes: 100,
            },
        );
        assert_eq!(usage.active_peers, 2);
        assert_eq!(usage.peer_bytes, 780 + 440);
        assert_eq!(usage.max_peer_bytes, 780);
        assert_eq!(usage.ring_bytes, 600);
        assert_eq!(usage.window_bytes, 120);
        assert_eq!(usage.seq_bytes, 300);
        // Legacy: doubled ring + doubled seqs.
        assert_eq!(
            usage.legacy_peer_bytes,
            (100 + 800 + 80 + 400) + (100 + 400 + 40 + 200)
        );
        assert!((usage.bytes_per_peer() - 610.0).abs() < 1e-9);
        assert!(usage.reduction_vs_legacy() > 0.3);
    }

    #[test]
    fn breakdown_totals() {
        let b = BufferMemBreakdown {
            ring_bytes: 10,
            window_bytes: 20,
            seq_bytes: 30,
        };
        assert_eq!(b.heap_total(), 60);
        assert_eq!(b.legacy_heap_total(), 20 + 20 + 60);
    }
}
