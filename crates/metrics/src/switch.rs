//! Switch-time metrics (§5.2 metrics 1 and 2 plus the supplementary ones).

use crate::sketch::QuantileSketch;
use crate::summary::Summary;
use fss_gossip::{SwitchRecord, SwitchStats};

/// Aggregated switch metrics over all countable nodes of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchSummary {
    /// Nodes that were present at the switch and did not depart.
    pub countable_nodes: usize,
    /// Nodes that completed the switch (finished `S1` and prepared `S2`).
    pub completed_nodes: usize,
    /// Average time to finish the playback of the old source (`T1'`,
    /// supplementary metric 3).
    pub avg_finish_old_secs: f64,
    /// Average time to prepare the new source — the paper's **average switch
    /// time** (metric 1).
    pub avg_prepare_new_secs: f64,
    /// Average time at which playback of the new source actually started.
    pub avg_start_new_secs: f64,
    /// Worst-case (last node) preparing time.
    pub max_prepare_new_secs: f64,
    /// Worst-case (last node) finishing time of the old source.
    pub max_finish_old_secs: f64,
    /// Average undelivered old-source backlog at switch time (`Q0`).
    pub avg_q0: f64,
}

impl SwitchSummary {
    /// Builds the summary from per-node records.  Nodes that never completed
    /// a milestone simply do not contribute to that milestone's average.
    pub fn from_records(records: &[SwitchRecord]) -> SwitchSummary {
        let countable: Vec<&SwitchRecord> = records.iter().filter(|r| r.countable()).collect();
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
        SwitchSummary {
            countable_nodes: countable.len(),
            completed_nodes: countable.iter().filter(|r| r.completed()).count(),
            avg_finish_old_secs: Summary::of(&finish).mean,
            avg_prepare_new_secs: Summary::of(&prepare).mean,
            avg_start_new_secs: Summary::of(&start).mean,
            max_prepare_new_secs: Summary::of(&prepare).max,
            max_finish_old_secs: Summary::of(&finish).max,
            avg_q0: Summary::of(&q0).mean,
        }
    }

    /// Builds the summary from the O(1)-memory streaming aggregate a
    /// [`SystemReport`](fss_gossip::SystemReport) carries.  Numerically
    /// identical (bit for bit) to [`from_records`](Self::from_records) over
    /// the full per-peer record vector: the stats fold values in the same
    /// ascending peer-id order the record path collected them in.
    pub fn from_stats(stats: &SwitchStats) -> SwitchSummary {
        SwitchSummary {
            countable_nodes: stats.countable_nodes,
            completed_nodes: stats.completed_nodes,
            avg_finish_old_secs: stats.finish_old_secs.mean(),
            avg_prepare_new_secs: stats.prepare_new_secs.mean(),
            avg_start_new_secs: stats.start_new_secs.mean(),
            max_prepare_new_secs: stats.prepare_new_secs.max_or_zero(),
            max_finish_old_secs: stats.finish_old_secs.max_or_zero(),
            avg_q0: stats.q0.mean(),
        }
    }

    /// Fraction of countable nodes that completed the switch.
    pub fn completion_rate(&self) -> f64 {
        if self.countable_nodes == 0 {
            0.0
        } else {
            self.completed_nodes as f64 / self.countable_nodes as f64
        }
    }

    /// The paper's "average switch time" alias.
    pub fn avg_switch_time_secs(&self) -> f64 {
        self.avg_prepare_new_secs
    }
}

/// Aggregated channel-zap startup delays.
///
/// In a multi-channel deployment a *zap* is a viewer leaving one channel and
/// joining another; its **zap latency** is the time from joining the target
/// channel's overlay to the start of playback there (the `Q`
/// consecutive-segment startup rule — the viewer-facing analogue of the
/// paper's source-switch preparing time, measured per viewer instead of per
/// source switch).  Zaps whose playback never started within the measured
/// horizon count as *pending* and are excluded from the latency moments but
/// reported in the completion rate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ZapSummary {
    /// Zap arrivals whose playback started within the horizon.
    pub completed: usize,
    /// Zap arrivals still waiting for playback at the end of the horizon.
    pub pending: usize,
    /// Mean startup delay of completed zaps, seconds.
    pub avg_startup_secs: f64,
    /// Worst completed startup delay, seconds.
    pub max_startup_secs: f64,
    /// 95th-percentile completed startup delay, seconds.
    pub p95_startup_secs: f64,
}

impl ZapSummary {
    /// Builds the summary from the completed zaps' startup delays plus the
    /// count of zaps still pending at the end of the horizon: the
    /// exact-vector oracle of [`from_sketch`](Self::from_sketch).
    #[cfg(test)]
    pub fn from_latencies(latencies: &[f64], pending: usize) -> ZapSummary {
        let s = Summary::of(latencies);
        ZapSummary {
            completed: s.count,
            pending,
            avg_startup_secs: s.mean,
            max_startup_secs: s.max,
            p95_startup_secs: Summary::quantile(latencies, 0.95),
        }
    }

    /// Builds the summary from a streaming latency sketch instead of a
    /// per-event vector.  Because simulated startup delays are whole
    /// multiples of the sketch unit (the period length `τ`), every field is
    /// bitwise identical to the exact-vector oracle in this module's tests
    /// over the equivalent sample.  Never allocates.
    pub fn from_sketch(latencies: &QuantileSketch, pending: usize) -> ZapSummary {
        ZapSummary {
            completed: latencies.count() as usize,
            pending,
            avg_startup_secs: latencies.mean(),
            max_startup_secs: latencies.max(),
            p95_startup_secs: latencies.quantile(0.95),
        }
    }

    /// Total zap arrivals observed (completed + pending).
    pub fn zaps(&self) -> usize {
        self.completed + self.pending
    }

    /// Fraction of observed zaps that reached playback within the horizon
    /// (0 when no zap was observed).
    pub fn completion_rate(&self) -> f64 {
        if self.zaps() == 0 {
            0.0
        } else {
            self.completed as f64 / self.zaps() as f64
        }
    }
}

/// Metric 2: the reduction ratio of the average switch time achieved by the
/// fast algorithm relative to the normal algorithm,
/// `1 − fast / normal`.
pub fn reduction_ratio(fast_avg_switch_secs: f64, normal_avg_switch_secs: f64) -> f64 {
    if normal_avg_switch_secs <= 0.0 {
        0.0
    } else {
        1.0 - fast_avg_switch_secs / normal_avg_switch_secs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

        let s = SwitchSummary::from_records(&records);
        assert_eq!(s.countable_nodes, 3);
        assert_eq!(s.completed_nodes, 3);
        assert!((s.avg_finish_old_secs - 12.0).abs() < 1e-12);
        assert!((s.avg_prepare_new_secs - 22.0).abs() < 1e-12);
        assert!((s.avg_start_new_secs - 22.0).abs() < 1e-12);
        assert_eq!(s.max_prepare_new_secs, 24.0);
        assert_eq!(s.max_finish_old_secs, 14.0);
        assert!((s.avg_q0 - 100.0).abs() < 1e-12);
        assert_eq!(s.completion_rate(), 1.0);
        assert_eq!(s.avg_switch_time_secs(), s.avg_prepare_new_secs);
    }

    #[test]
    fn incomplete_nodes_lower_the_completion_rate_only() {
        let records = vec![
            record(10, Some(5.0), Some(8.0)),
            record(10, Some(6.0), None),
        ];
        let s = SwitchSummary::from_records(&records);
        assert_eq!(s.countable_nodes, 2);
        assert_eq!(s.completed_nodes, 1);
        assert_eq!(s.completion_rate(), 0.5);
        // The prepare average uses only the node that has a value.
        assert!((s.avg_prepare_new_secs - 8.0).abs() < 1e-12);
        assert!((s.avg_finish_old_secs - 5.5).abs() < 1e-12);
    }

    #[test]
    fn empty_records() {
        let s = SwitchSummary::from_records(&[]);
        assert_eq!(s.countable_nodes, 0);
        assert_eq!(s.completion_rate(), 0.0);
        assert_eq!(s.avg_prepare_new_secs, 0.0);
    }

    #[test]
    fn zap_summary_aggregates_latencies_and_pending() {
        let latencies = [2.0, 4.0, 6.0, 8.0];
        let z = ZapSummary::from_latencies(&latencies, 2);
        assert_eq!(z.completed, 4);
        assert_eq!(z.pending, 2);
        assert_eq!(z.zaps(), 6);
        assert!((z.avg_startup_secs - 5.0).abs() < 1e-12);
        assert_eq!(z.max_startup_secs, 8.0);
        assert!(z.p95_startup_secs <= z.max_startup_secs + 1e-12);
        assert!((z.completion_rate() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn zap_summary_empty() {
        let z = ZapSummary::from_latencies(&[], 0);
        assert_eq!(z.zaps(), 0);
        assert_eq!(z.completion_rate(), 0.0);
        assert_eq!(z.avg_startup_secs, 0.0);
        let pending_only = ZapSummary::from_latencies(&[], 3);
        assert_eq!(pending_only.completion_rate(), 0.0);
        assert_eq!(pending_only.zaps(), 3);
    }

    #[test]
    fn from_stats_matches_from_records_bitwise() {
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

        let via_records = SwitchSummary::from_records(&records);
        let via_stats = SwitchSummary::from_stats(&SwitchStats::from_records(&records));
        assert_eq!(via_records, via_stats);

        let empty = SwitchSummary::from_stats(&SwitchStats::from_records(&[]));
        assert_eq!(empty, SwitchSummary::from_records(&[]));
    }

    #[test]
    fn zap_summary_from_sketch_matches_from_latencies_bitwise() {
        let latencies: Vec<f64> = [2u64, 4, 4, 6, 8, 31, 2, 900]
            .iter()
            .map(|&k| k as f64)
            .collect();
        let mut sketch = QuantileSketch::new(1.0);
        for &l in &latencies {
            sketch.record(l);
        }
        assert_eq!(
            ZapSummary::from_sketch(&sketch, 2),
            ZapSummary::from_latencies(&latencies, 2)
        );
        assert_eq!(
            ZapSummary::from_sketch(&QuantileSketch::new(1.0), 3),
            ZapSummary::from_latencies(&[], 3)
        );
    }

    #[test]
    fn reduction_ratio_matches_the_paper_definition() {
        assert!((reduction_ratio(16.0, 20.0) - 0.2).abs() < 1e-12);
        assert!((reduction_ratio(14.0, 20.0) - 0.3).abs() < 1e-12);
        assert_eq!(reduction_ratio(10.0, 0.0), 0.0);
        // A slower "fast" algorithm produces a negative reduction.
        assert!(reduction_ratio(25.0, 20.0) < 0.0);
    }
}
