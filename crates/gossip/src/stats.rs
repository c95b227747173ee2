//! Raw observations recorded while the system runs.
//!
//! The aggregates here are what `SystemReport` carries and the experiment
//! harness reads directly: [`SwitchStats`] (average finishing and preparing
//! times), [`TrafficCounters::overhead`] (communication overhead) and the
//! [`RatioSample`]s of the ratio tracks.

/// Running totals of control and data traffic, in bits.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrafficCounters {
    /// Bits spent exchanging buffer maps (control traffic).
    pub control_bits: u64,
    /// Bits spent transferring data segments.
    pub data_bits: u64,
}

impl TrafficCounters {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds control (buffer-map) traffic.
    pub fn add_control(&mut self, bits: u64) {
        self.control_bits += bits;
    }

    /// Adds data (segment) traffic.
    pub fn add_data(&mut self, bits: u64) {
        self.data_bits += bits;
    }

    /// Accumulates another counter into this one.
    pub fn merge(&mut self, other: &TrafficCounters) {
        self.control_bits += other.control_bits;
        self.data_bits += other.data_bits;
    }

    /// The communication overhead: control bits over data bits
    /// (§5.2 metric 3).  Returns 0 when no data has been transferred.
    pub fn overhead(&self) -> f64 {
        if self.data_bits == 0 {
            0.0
        } else {
            self.control_bits as f64 / self.data_bits as f64
        }
    }
}

/// Per-node record of the source-switch milestones.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SwitchRecord {
    /// Whether the node was part of the overlay when the switch happened
    /// (nodes joining later are excluded from switch metrics).
    pub present_at_switch: bool,
    /// Whether the node left before completing the switch.
    pub departed: bool,
    /// `Q0`: undelivered segments of the old source at switch time.
    pub q0: usize,
    /// Seconds (since the switch) at which the node finished the playback of
    /// the old source.
    pub s1_finished_secs: Option<f64>,
    /// Seconds at which the node had gathered the first `Qs` segments of the
    /// new source (the paper's *preparing time* = switch time).
    pub s2_prepared_secs: Option<f64>,
    /// Seconds at which the node actually started playing the new source
    /// (both conditions satisfied).
    pub s2_started_secs: Option<f64>,
}

impl SwitchRecord {
    /// True when the node both finished the old stream and prepared the new
    /// one.
    pub fn completed(&self) -> bool {
        self.s1_finished_secs.is_some() && self.s2_prepared_secs.is_some()
    }

    /// True when this node should be counted in switch-time averages.
    pub fn countable(&self) -> bool {
        self.present_at_switch && !self.departed
    }
}

/// Streaming moments of one switch milestone over the countable nodes:
/// count, sum, min and max — everything the paper's averages and worst
/// cases need, in 32 bytes instead of a per-peer vector.
///
/// Values are folded in ascending peer-id order (the order the legacy
/// per-peer record vector was aggregated in), so the derived mean is
/// bitwise identical to the historical collect-into-`Vec` path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MilestoneStat {
    /// Number of nodes that reached the milestone.
    pub count: usize,
    /// Sum of the milestone values, folded in peer-id order.
    pub sum: f64,
    /// Smallest recorded value (+∞ when no node reached the milestone).
    pub min: f64,
    /// Largest recorded value (−∞ when no node reached the milestone; see
    /// [`max_or_zero`](Self::max_or_zero)).
    pub max: f64,
}

impl Default for MilestoneStat {
    fn default() -> Self {
        MilestoneStat {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl MilestoneStat {
    /// Folds one observation in.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Mean of the recorded values (0 when empty, matching the legacy
    /// `Summary::of` empty-sample convention).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Largest recorded value (0 when empty).
    pub fn max_or_zero(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// O(1)-memory aggregate of the per-peer [`SwitchRecord`]s — what
/// [`SystemReport`](crate::system::SystemReport) carries instead of a
/// per-peer vector, so report size no longer scales with the population.
///
/// Built by one serial ascending-id pass over the system's internal
/// records; every derived figure (averages, maxima, completion counts) is
/// bitwise identical to aggregating the full record vector.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SwitchStats {
    /// Nodes that were present at the switch and did not depart.
    pub countable_nodes: usize,
    /// Countable nodes that completed the switch (finished `S1` and
    /// prepared `S2`).
    pub completed_nodes: usize,
    /// Seconds to finish the old source's playback, over the countable
    /// nodes that reached that milestone.
    pub finish_old_secs: MilestoneStat,
    /// Seconds to gather the first `Qs` segments of the new source (the
    /// paper's preparing time = switch time).
    pub prepare_new_secs: MilestoneStat,
    /// Seconds at which playback of the new source actually started.
    pub start_new_secs: MilestoneStat,
    /// Undelivered old-source backlog at switch time (`Q0`), over all
    /// countable nodes.
    pub q0: MilestoneStat,
}

impl SwitchStats {
    /// Aggregates per-node records in iteration (= ascending peer-id)
    /// order; only countable records contribute.
    pub fn from_records<'a>(records: impl IntoIterator<Item = &'a SwitchRecord>) -> SwitchStats {
        let mut stats = SwitchStats::default();
        for record in records {
            if !record.countable() {
                continue;
            }
            stats.countable_nodes += 1;
            if record.completed() {
                stats.completed_nodes += 1;
            }
            if let Some(secs) = record.s1_finished_secs {
                stats.finish_old_secs.record(secs);
            }
            if let Some(secs) = record.s2_prepared_secs {
                stats.prepare_new_secs.record(secs);
            }
            if let Some(secs) = record.s2_started_secs {
                stats.start_new_secs.record(secs);
            }
            stats.q0.record(record.q0 as f64);
        }
        stats
    }

    /// Fraction of countable nodes that completed the switch.
    pub fn completion_rate(&self) -> f64 {
        if self.countable_nodes == 0 {
            0.0
        } else {
            self.completed_nodes as f64 / self.countable_nodes as f64
        }
    }
}

/// One per-period sample of the two ratio tracks of Figures 5 and 9.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RatioSample {
    /// Seconds since the switch.
    pub secs: f64,
    /// Mean over nodes of `Q1 / Q0` (undelivered ratio of the old source).
    pub undelivered_ratio_s1: f64,
    /// Mean over nodes of `(Qs − Q2) / Qs` (delivered ratio of the new
    /// source).
    pub delivered_ratio_s2: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traffic_overhead_is_control_over_data() {
        let mut t = TrafficCounters::new();
        assert_eq!(t.overhead(), 0.0);
        t.add_control(620);
        t.add_data(30 * 1024);
        assert!((t.overhead() - 620.0 / 30720.0).abs() < 1e-12);
        t.add_data(30 * 1024);
        assert!((t.overhead() - 620.0 / 61440.0).abs() < 1e-12);
    }

    #[test]
    fn traffic_merge_accumulates() {
        let mut a = TrafficCounters::new();
        a.add_control(10);
        a.add_data(100);
        let mut b = TrafficCounters::new();
        b.add_control(5);
        b.add_data(50);
        a.merge(&b);
        assert_eq!(a.control_bits, 15);
        assert_eq!(a.data_bits, 150);
    }

    #[test]
    fn switch_record_completion_and_countability() {
        let mut r = SwitchRecord {
            present_at_switch: true,
            ..Default::default()
        };
        assert!(!r.completed());
        assert!(r.countable());
        r.s1_finished_secs = Some(12.0);
        assert!(!r.completed());
        r.s2_prepared_secs = Some(18.0);
        assert!(r.completed());
        r.departed = true;
        assert!(!r.countable());

        let absent = SwitchRecord::default();
        assert!(!absent.countable());
    }

    #[test]
    fn switch_stats_aggregate_matches_manual_fold() {
        let mut records = vec![SwitchRecord::default(); 5];
        for (i, r) in records.iter_mut().enumerate().take(4) {
            r.present_at_switch = true;
            r.q0 = 10 * (i + 1);
            r.s1_finished_secs = Some(2.0 * (i + 1) as f64);
            if i < 3 {
                r.s2_prepared_secs = Some(3.0 * (i + 1) as f64);
                r.s2_started_secs = Some(4.0 * (i + 1) as f64);
            }
        }
        records[2].departed = true; // excluded entirely

        let stats = SwitchStats::from_records(&records);
        assert_eq!(stats.countable_nodes, 3);
        assert_eq!(stats.completed_nodes, 2);
        assert_eq!(stats.finish_old_secs.count, 3);
        assert!((stats.finish_old_secs.mean() - (2.0 + 4.0 + 8.0) / 3.0).abs() < 1e-12);
        assert_eq!(stats.finish_old_secs.max_or_zero(), 8.0);
        assert_eq!(stats.prepare_new_secs.count, 2);
        assert!((stats.prepare_new_secs.mean() - 4.5).abs() < 1e-12);
        assert_eq!(stats.q0.count, 3);
        assert!((stats.q0.mean() - (10.0 + 20.0 + 40.0) / 3.0).abs() < 1e-12);
        assert!((stats.completion_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    fn record(q0: usize, finish: Option<f64>, prepare: Option<f64>) -> SwitchRecord {
        SwitchRecord {
            present_at_switch: true,
            departed: false,
            q0,
            s1_finished_secs: finish,
            s2_prepared_secs: prepare,
            s2_started_secs: match (finish, prepare) {
                (Some(f), Some(p)) => Some(f.max(p)),
                _ => None,
            },
        }
    }

    #[test]
    fn aggregates_only_countable_nodes() {
        let mut records = vec![
            record(100, Some(10.0), Some(20.0)),
            record(120, Some(14.0), Some(24.0)),
            record(80, Some(12.0), Some(22.0)),
        ];
        // A departed node and a late joiner must be excluded.
        records.push(SwitchRecord {
            departed: true,
            ..record(999, Some(1.0), Some(1.0))
        });
        records.push(SwitchRecord::default());

        let s = SwitchStats::from_records(&records);
        assert_eq!(s.countable_nodes, 3);
        assert_eq!(s.completed_nodes, 3);
        assert!((s.finish_old_secs.mean() - 12.0).abs() < 1e-12);
        assert!((s.prepare_new_secs.mean() - 22.0).abs() < 1e-12);
        assert!((s.start_new_secs.mean() - 22.0).abs() < 1e-12);
        assert_eq!(s.prepare_new_secs.max_or_zero(), 24.0);
        assert_eq!(s.finish_old_secs.max_or_zero(), 14.0);
        assert!((s.q0.mean() - 100.0).abs() < 1e-12);
        assert_eq!(s.completion_rate(), 1.0);
    }

    #[test]
    fn incomplete_nodes_lower_the_completion_rate_only() {
        let records = vec![
            record(10, Some(5.0), Some(8.0)),
            record(10, Some(6.0), None),
        ];
        let s = SwitchStats::from_records(&records);
        assert_eq!(s.countable_nodes, 2);
        assert_eq!(s.completed_nodes, 1);
        assert_eq!(s.completion_rate(), 0.5);
        // The prepare average uses only the node that has a value.
        assert!((s.prepare_new_secs.mean() - 8.0).abs() < 1e-12);
        assert!((s.finish_old_secs.mean() - 5.5).abs() < 1e-12);
    }

    #[test]
    fn empty_records() {
        let s = SwitchStats::from_records(&[]);
        assert_eq!(s.countable_nodes, 0);
        assert_eq!(s.completion_rate(), 0.0);
        assert_eq!(s.prepare_new_secs.mean(), 0.0);
    }

    /// The exact-vector fold the streaming stats reproduce: a milestone's
    /// values collected in record order, then their mean and maximum
    /// (both 0 for an empty sample).
    fn vector_fold(values: &[f64]) -> (f64, f64) {
        if values.is_empty() {
            return (0.0, 0.0);
        }
        let sum = values.iter().fold(0.0, |sum, v| sum + v);
        let max = values.iter().fold(f64::NEG_INFINITY, |max, &v| max.max(v));
        (sum / values.len() as f64, max)
    }

    #[test]
    fn from_records_matches_the_vector_fold_bitwise() {
        let mut records = vec![
            record(100, Some(10.0), Some(20.0)),
            record(120, Some(14.0), Some(24.0)),
            record(80, Some(12.0), None),
        ];
        records.push(SwitchRecord {
            departed: true,
            ..record(999, Some(1.0), Some(1.0))
        });
        records.push(SwitchRecord::default());

        for records in [&records[..], &[]] {
            let stats = SwitchStats::from_records(records);
            let countable: Vec<&SwitchRecord> = records.iter().filter(|r| r.countable()).collect();
            assert_eq!(stats.countable_nodes, countable.len());
            assert_eq!(
                stats.completed_nodes,
                countable.iter().filter(|r| r.completed()).count()
            );
            let finish: Vec<f64> = countable
                .iter()
                .filter_map(|r| r.s1_finished_secs)
                .collect();
            let prepare: Vec<f64> = countable
                .iter()
                .filter_map(|r| r.s2_prepared_secs)
                .collect();
            let start: Vec<f64> = countable.iter().filter_map(|r| r.s2_started_secs).collect();
            let q0: Vec<f64> = countable.iter().map(|r| r.q0 as f64).collect();
            for (stat, values) in [
                (stats.finish_old_secs, finish),
                (stats.prepare_new_secs, prepare),
                (stats.start_new_secs, start),
                (stats.q0, q0),
            ] {
                let (mean, max) = vector_fold(&values);
                assert_eq!(stat.mean().to_bits(), mean.to_bits());
                assert_eq!(stat.max_or_zero().to_bits(), max.to_bits());
            }
        }
    }

    #[test]
    fn empty_switch_stats_report_zeros() {
        let stats = SwitchStats::from_records(&[]);
        assert_eq!(stats.countable_nodes, 0);
        assert_eq!(stats.completion_rate(), 0.0);
        assert_eq!(stats.finish_old_secs.mean(), 0.0);
        assert_eq!(stats.finish_old_secs.max_or_zero(), 0.0);
    }

    #[test]
    fn ratio_sample_is_plain_data() {
        let s = RatioSample {
            secs: 3.0,
            undelivered_ratio_s1: 0.4,
            delivered_ratio_s2: 0.2,
        };
        assert_eq!(s.secs, 3.0);
        assert_eq!(s.undelivered_ratio_s1, 0.4);
        assert_eq!(s.delivered_ratio_s2, 0.2);
    }
}
