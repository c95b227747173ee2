//! Communication-overhead metric (§5.2 metric 3, Figures 8 and 12).

use fss_gossip::TrafficCounters;

/// Communication overhead of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OverheadSummary {
    /// Control (buffer-map) bits exchanged in the measured window.
    pub control_bits: u64,
    /// Data (segment) bits transferred in the measured window.
    pub data_bits: u64,
    /// Overhead ratio: control / data.
    pub overhead: f64,
}

impl OverheadSummary {
    /// Builds the summary from traffic counters.
    pub fn from_traffic(traffic: &TrafficCounters) -> OverheadSummary {
        OverheadSummary {
            control_bits: traffic.control_bits,
            data_bits: traffic.data_bits,
            overhead: traffic.overhead(),
        }
    }

    /// The analytical estimate of §5.3: with `M` neighbours, 620-bit maps and
    /// `segments_per_second` segments of `segment_bits` bits delivered per
    /// second, the overhead is `620·M / (segment_bits · segments_per_second)`.
    pub fn analytical(
        neighbors: usize,
        buffermap_bits: u64,
        segment_bits: u64,
        segments_per_second: f64,
    ) -> f64 {
        if segment_bits == 0 || segments_per_second <= 0.0 {
            return 0.0;
        }
        (buffermap_bits as f64 * neighbors as f64) / (segment_bits as f64 * segments_per_second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarises_traffic() {
        let mut t = TrafficCounters::new();
        t.add_control(620 * 5 * 100);
        t.add_data(30 * 1024 * 10 * 100);
        let s = OverheadSummary::from_traffic(&t);
        assert_eq!(s.control_bits, 310_000);
        assert_eq!(s.data_bits, 30_720_000);
        assert!((s.overhead - 310_000.0 / 30_720_000.0).abs() < 1e-12);
    }

    #[test]
    fn analytical_matches_the_papers_one_percent_estimate() {
        // 620 bits × M=5 / (30 Kb × 10 seg/s) ≈ 1 %.
        let o = OverheadSummary::analytical(5, 620, 30 * 1024, 10.0);
        assert!((o - 0.0100911).abs() < 1e-4);
        // Fewer delivered segments per second raise the ratio, as the paper
        // notes ("most nodes' data delivery rate cannot catch the media play
        // rate").
        assert!(OverheadSummary::analytical(5, 620, 30 * 1024, 6.7) > o);
    }

    #[test]
    fn degenerate_analytical_inputs() {
        assert_eq!(OverheadSummary::analytical(5, 620, 0, 10.0), 0.0);
        assert_eq!(OverheadSummary::analytical(5, 620, 30 * 1024, 0.0), 0.0);
    }
}
