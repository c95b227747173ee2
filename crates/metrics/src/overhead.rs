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
}
