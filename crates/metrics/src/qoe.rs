//! Bounded QoE timelines and diffable scenario scorecards.
//!
//! `fss-gossip` emits one counter-only [`PeriodSample`] row per period
//! (startups, stall episodes, continuity, switch progress — see
//! `fss_gossip::qoe`); this module turns those rows into artefacts whose
//! size is **independent of run length and population**:
//!
//! * [`Timeline`] — a fixed-capacity ring of per-period windows.  Once the
//!   ring is full, adjacent windows merge pairwise (deterministic 2×
//!   decimation, the stride of every slot doubling), so a 100-period run
//!   and a 100-million-period run occupy the same memory and the structure
//!   is a pure function of the sample sequence — byte-identical across
//!   worker counts, shard counts and run-ahead bounds.
//! * [`QoeWindow`] / [`DepthWindow`] — the concrete window types: playback
//!   QoE counters and admission-queue depth gauges.  Windows merge two
//!   ways: *in time* (adjacent periods, when the ring decimates) and
//!   *across channels* (the same period span from another channel, when a
//!   report folds per-channel timelines in channel order).
//! * [`Scorecard`] — the scalar summary of one run (startup percentiles,
//!   stall rate and duration, continuity floor, switch-completion drain,
//!   admission peaks) with an exact `key = value` text form
//!   ([`Scorecard::to_text`], the input of the golden digests) and a
//!   [`Scorecard::diff`] the experiment harness prints across configs.
//!
//! See `docs/observability.md` for the event taxonomy and the memory model.

use crate::sketch::QuantileSketch;
use fss_gossip::PeriodSample;
use std::fmt;

/// A per-period aggregation window a [`Timeline`] can decimate in time and
/// a report can fold across channels.
pub trait TimelineWindow: Clone {
    /// Merges `other`, the window covering the periods immediately after
    /// `self` (the ring's 2× decimation step).
    fn absorb_next(&mut self, other: &Self);
    /// Merges `other`, the **same** period span observed by another
    /// channel (the report-time channel fold).
    fn fold_channel(&mut self, other: &Self);
}

/// Fixed-capacity timeline: at most `capacity` windows, each covering
/// `stride` periods.  Pushing beyond the capacity merges adjacent windows
/// pairwise and doubles the stride — memory stays O(capacity) for any run
/// length, and the result depends only on the pushed sequence.
///
/// Steady-state pushes never allocate: the slot vector is pre-reserved at
/// construction and decimation shrinks it in place.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline<W> {
    slots: Vec<W>,
    capacity: usize,
    stride: u64,
    /// The window currently accumulating raw samples (absent between
    /// strides).
    pending: Option<W>,
    /// Raw samples absorbed into `pending` so far.
    pending_count: u64,
    /// Total raw samples pushed over the timeline's lifetime.
    samples: u64,
}

impl<W: TimelineWindow> Timeline<W> {
    /// Creates an empty timeline of at most `capacity` windows.
    ///
    /// # Panics
    /// Panics unless `capacity` is even and at least 2 (decimation halves
    /// the ring).
    pub fn new(capacity: usize) -> Self {
        assert!(
            capacity >= 2 && capacity.is_multiple_of(2),
            "timeline capacity must be even and >= 2 (got {capacity})"
        );
        Timeline {
            slots: Vec::with_capacity(capacity),
            capacity,
            stride: 1,
            pending: None,
            pending_count: 0,
            samples: 0,
        }
    }

    /// Appends one raw per-period sample.
    pub fn push(&mut self, sample: W) {
        self.samples += 1;
        match self.pending.as_mut() {
            Some(pending) => pending.absorb_next(&sample),
            None => self.pending = Some(sample),
        }
        self.pending_count += 1;
        if self.pending_count == self.stride {
            let full = self.pending.take().expect("pending window exists");
            self.pending_count = 0;
            self.slots.push(full);
            if self.slots.len() == self.capacity {
                self.decimate();
            }
        }
    }

    /// Merges adjacent slot pairs in place and doubles the stride.
    fn decimate(&mut self) {
        let half = self.slots.len() / 2;
        for i in 0..half {
            let mut merged = self.slots[2 * i].clone();
            merged.absorb_next(&self.slots[2 * i + 1]);
            self.slots[i] = merged;
        }
        self.slots.truncate(half);
        self.stride *= 2;
    }

    /// Folds another channel's timeline into this one, window by window.
    /// Both timelines must have seen the same number of samples at the
    /// same capacity (every channel of a session runs the same periods),
    /// so their strides and shapes agree.
    ///
    /// # Panics
    /// Panics if the shapes disagree.
    pub fn fold_channel(&mut self, other: &Timeline<W>) {
        assert_eq!(self.capacity, other.capacity, "timeline capacity mismatch");
        assert_eq!(
            self.samples, other.samples,
            "timeline sample-count mismatch"
        );
        debug_assert_eq!(self.stride, other.stride);
        debug_assert_eq!(self.slots.len(), other.slots.len());
        for (mine, theirs) in self.slots.iter_mut().zip(&other.slots) {
            mine.fold_channel(theirs);
        }
        match (self.pending.as_mut(), other.pending.as_ref()) {
            (Some(mine), Some(theirs)) => mine.fold_channel(theirs),
            (None, None) => {}
            _ => unreachable!("equal sample counts imply equal pending state"),
        }
    }

    /// The completed windows, oldest first (the still-accumulating tail is
    /// [`pending`](Self::pending)).
    pub fn slots(&self) -> &[W] {
        &self.slots
    }

    /// The window still accumulating samples, if any.
    pub fn pending(&self) -> Option<&W> {
        self.pending.as_ref()
    }

    /// Iterates every window in time order: completed slots, then the
    /// pending tail.
    pub fn windows(&self) -> impl Iterator<Item = &W> {
        self.slots.iter().chain(self.pending.as_ref())
    }

    /// Periods currently covered by each completed window.
    pub fn stride(&self) -> u64 {
        self.stride
    }

    /// The configured maximum window count.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total raw samples pushed so far.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// True when nothing has been pushed.
    pub fn is_empty(&self) -> bool {
        self.samples == 0
    }
}

/// Playback-QoE window: the counters of one or more adjacent
/// [`PeriodSample`] rows (and, after a report fold, of every channel).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QoeWindow {
    /// First period this window covers.
    pub start_period: u64,
    /// Periods covered.
    pub periods: u64,
    /// Sum over the covered periods of the per-period viewer count.
    pub viewer_periods: u64,
    /// Largest per-period viewer count observed (summed across channels by
    /// the report fold, so cross-channel it is an upper bound on the true
    /// simultaneous count).
    pub viewers_peak: u64,
    /// Playback startups (first frames).
    pub startups: u64,
    /// Stall episodes begun.
    pub stall_begins: u64,
    /// Stall episodes ended.
    pub stall_ends: u64,
    /// Largest per-period count of concurrently stalled peers (upper bound
    /// across channels, like `viewers_peak`).
    pub stalled_peak: u64,
    /// Segments played.
    pub played: u64,
    /// Play opportunities missed.
    pub stalled_segments: u64,
    /// Largest per-period count of switch-countable peers still waiting to
    /// complete the source switch.
    pub switch_waiting_peak: u64,
    /// The waiting count at the window's last period.
    pub switch_waiting_last: u64,
}

impl QoeWindow {
    /// The window of a single raw per-period row.
    pub fn from_sample(sample: &PeriodSample) -> QoeWindow {
        QoeWindow {
            start_period: sample.period,
            periods: 1,
            viewer_periods: sample.viewers,
            viewers_peak: sample.viewers,
            startups: sample.startups,
            stall_begins: sample.stall_begins,
            stall_ends: sample.stall_ends,
            stalled_peak: sample.stalled,
            played: sample.played,
            stalled_segments: sample.stalled_segments,
            switch_waiting_peak: sample.switch_waiting,
            switch_waiting_last: sample.switch_waiting,
        }
    }

    /// Fraction of play opportunities met inside the window (`None` when
    /// nothing was due).
    pub fn continuity(&self) -> Option<f64> {
        let opportunities = self.played + self.stalled_segments;
        (opportunities > 0).then(|| self.played as f64 / opportunities as f64)
    }
}

impl TimelineWindow for QoeWindow {
    fn absorb_next(&mut self, other: &Self) {
        debug_assert_eq!(other.start_period, self.start_period + self.periods);
        self.periods += other.periods;
        self.viewer_periods += other.viewer_periods;
        self.viewers_peak = self.viewers_peak.max(other.viewers_peak);
        self.startups += other.startups;
        self.stall_begins += other.stall_begins;
        self.stall_ends += other.stall_ends;
        self.stalled_peak = self.stalled_peak.max(other.stalled_peak);
        self.played += other.played;
        self.stalled_segments += other.stalled_segments;
        self.switch_waiting_peak = self.switch_waiting_peak.max(other.switch_waiting_peak);
        self.switch_waiting_last = other.switch_waiting_last;
    }

    fn fold_channel(&mut self, other: &Self) {
        debug_assert_eq!(self.start_period, other.start_period);
        debug_assert_eq!(self.periods, other.periods);
        self.viewer_periods += other.viewer_periods;
        self.viewers_peak += other.viewers_peak;
        self.startups += other.startups;
        self.stall_begins += other.stall_begins;
        self.stall_ends += other.stall_ends;
        self.stalled_peak += other.stalled_peak;
        self.played += other.played;
        self.stalled_segments += other.stalled_segments;
        self.switch_waiting_peak += other.switch_waiting_peak;
        self.switch_waiting_last += other.switch_waiting_last;
    }
}

/// Admission-queue depth window: the post-drain queue depth gauges of one
/// or more adjacent period boundaries.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DepthWindow {
    /// First period boundary this window covers.
    pub start_period: u64,
    /// Boundaries covered.
    pub periods: u64,
    /// Deepest post-drain queue inside the window (summed across channels
    /// by the report fold — an upper bound on the true simultaneous total).
    pub peak: u64,
    /// Sum of the per-boundary depths (for mean depth).
    pub sum: u64,
    /// Depth at the window's last boundary.
    pub last: u64,
}

impl DepthWindow {
    /// The window of one period boundary's post-drain depth.
    pub fn from_depth(period: u64, depth: u64) -> DepthWindow {
        DepthWindow {
            start_period: period,
            periods: 1,
            peak: depth,
            sum: depth,
            last: depth,
        }
    }

    /// Mean post-drain depth over the window.
    pub fn mean(&self) -> f64 {
        if self.periods == 0 {
            0.0
        } else {
            self.sum as f64 / self.periods as f64
        }
    }
}

impl TimelineWindow for DepthWindow {
    fn absorb_next(&mut self, other: &Self) {
        debug_assert_eq!(other.start_period, self.start_period + self.periods);
        self.periods += other.periods;
        self.peak = self.peak.max(other.peak);
        self.sum += other.sum;
        self.last = other.last;
    }

    fn fold_channel(&mut self, other: &Self) {
        debug_assert_eq!(self.start_period, other.start_period);
        debug_assert_eq!(self.periods, other.periods);
        self.peak += other.peak;
        self.sum += other.sum;
        self.last += other.last;
    }
}

/// The scalar QoE summary of one run: what two configurations are compared
/// on.  Serialises to an exact text form (`{:?}` prints the shortest f64
/// representation that round-trips), so hashing the text pins every field
/// bit for bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scorecard {
    /// Periods the run executed.
    pub periods: u64,
    /// Viewers at report time (all channels).
    pub viewers: u64,
    /// Playback startups (first frames).
    pub startups: u64,
    /// Median startup delay, seconds.
    pub startup_p50_secs: f64,
    /// 95th-percentile startup delay, seconds.
    pub startup_p95_secs: f64,
    /// Mean startup delay, seconds.
    pub startup_mean_secs: f64,
    /// Completed stall episodes.
    pub stall_events: u64,
    /// Stall episodes begun per viewer-hour of watching.
    pub stalls_per_viewer_hour: f64,
    /// Mean completed-stall duration, seconds.
    pub stall_mean_secs: f64,
    /// 95th-percentile completed-stall duration, seconds.
    pub stall_p95_secs: f64,
    /// Run-wide playback continuity (played / play opportunities).
    pub continuity_mean: f64,
    /// Worst per-window continuity over the run's timeline.
    pub continuity_floor: f64,
    /// Most switch-countable peers simultaneously waiting to complete a
    /// source switch.
    pub switch_waiting_peak: u64,
    /// Seconds (run clock) by which the switch-waiting count had drained to
    /// zero, at timeline-window resolution (`None`: no switch observed, or
    /// still draining at the horizon).
    pub switch_drained_secs: Option<f64>,
    /// 95th-percentile cross-channel zap startup delay, seconds.
    pub zap_p95_secs: f64,
    /// Deepest admission queue observed (post-drain, summed across
    /// channels).
    pub admission_peak_queue: u64,
    /// 95th-percentile admission delay, seconds.
    pub admission_p95_delay_secs: f64,
}

/// Quantile helper that maps an empty sketch to 0 instead of NaN.
fn sketch_stats(sketch: &QuantileSketch) -> (f64, f64, f64) {
    if sketch.is_empty() {
        (0.0, 0.0, 0.0)
    } else {
        (sketch.quantile(0.5), sketch.quantile(0.95), sketch.mean())
    }
}

impl Scorecard {
    /// Builds the scorecard from a run's merged observations: the
    /// cross-channel startup/stall sketches (unit = `τ`), the folded QoE
    /// and queue-depth timelines, and the zap/admission percentiles the
    /// session report already carries.
    #[allow(clippy::too_many_arguments)]
    pub fn from_observations(
        periods: u64,
        viewers: u64,
        startup: &QuantileSketch,
        stall: &QuantileSketch,
        qoe: &Timeline<QoeWindow>,
        depth: &Timeline<DepthWindow>,
        zap_p95_secs: f64,
        admission_p95_delay_secs: f64,
        tau_secs: f64,
    ) -> Scorecard {
        let (startup_p50_secs, startup_p95_secs, startup_mean_secs) = sketch_stats(startup);
        let (_, stall_p95_secs, stall_mean_secs) = sketch_stats(stall);

        let mut played = 0u64;
        let mut stalled_segments = 0u64;
        let mut startups = 0u64;
        let mut stall_begins = 0u64;
        let mut stall_events = 0u64;
        let mut viewer_periods = 0u64;
        let mut continuity_floor = 1.0f64;
        let mut switch_waiting_peak = 0u64;
        let mut drained_at = None;
        let mut final_waiting = 0u64;
        for window in qoe.windows() {
            played += window.played;
            stalled_segments += window.stalled_segments;
            startups += window.startups;
            stall_begins += window.stall_begins;
            stall_events += window.stall_ends;
            viewer_periods += window.viewer_periods;
            if let Some(c) = window.continuity() {
                continuity_floor = continuity_floor.min(c);
            }
            switch_waiting_peak = switch_waiting_peak.max(window.switch_waiting_peak);
            if window.switch_waiting_peak > 0 {
                drained_at = Some((window.start_period + window.periods) as f64 * tau_secs);
            }
            final_waiting = window.switch_waiting_last;
        }
        let opportunities = played + stalled_segments;
        let continuity_mean = if opportunities > 0 {
            played as f64 / opportunities as f64
        } else {
            1.0
        };
        if qoe.is_empty() {
            continuity_floor = 1.0;
        }
        let viewer_hours = viewer_periods as f64 * tau_secs / 3600.0;
        let stalls_per_viewer_hour = if viewer_hours > 0.0 {
            stall_begins as f64 / viewer_hours
        } else {
            0.0
        };

        let admission_peak_queue = depth.windows().map(|w| w.peak).max().unwrap_or(0);

        Scorecard {
            periods,
            viewers,
            startups,
            startup_p50_secs,
            startup_p95_secs,
            startup_mean_secs,
            stall_events,
            stalls_per_viewer_hour,
            stall_mean_secs,
            stall_p95_secs,
            continuity_mean,
            continuity_floor,
            switch_waiting_peak,
            switch_drained_secs: (final_waiting == 0).then_some(drained_at).flatten(),
            zap_p95_secs,
            admission_peak_queue,
            admission_p95_delay_secs,
        }
    }

    /// The comparison of `self` (the baseline) against `other`.
    pub fn diff(&self, other: &Scorecard) -> ScorecardDelta {
        ScorecardDelta {
            before: *self,
            after: *other,
        }
    }

    /// Serialises the scorecard as `key = value` lines.  f64 values print
    /// through `{:?}` (the shortest representation that parses back to the
    /// identical bits), so the text is exact and hashing it pins every
    /// field.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        for (key, value) in self.fields() {
            // Writes into a String are infallible.
            let _ = writeln!(s, "{key} = {value}");
        }
        s
    }

    /// Every metric as a `(name, printed value)` pair, in display order.
    fn fields(&self) -> Vec<(&'static str, String)> {
        fn opt(v: Option<f64>) -> String {
            v.map_or_else(|| "none".to_string(), |x| format!("{x:?}"))
        }
        vec![
            ("periods", self.periods.to_string()),
            ("viewers", self.viewers.to_string()),
            ("startups", self.startups.to_string()),
            ("startup_p50_secs", format!("{:?}", self.startup_p50_secs)),
            ("startup_p95_secs", format!("{:?}", self.startup_p95_secs)),
            ("startup_mean_secs", format!("{:?}", self.startup_mean_secs)),
            ("stall_events", self.stall_events.to_string()),
            (
                "stalls_per_viewer_hour",
                format!("{:?}", self.stalls_per_viewer_hour),
            ),
            ("stall_mean_secs", format!("{:?}", self.stall_mean_secs)),
            ("stall_p95_secs", format!("{:?}", self.stall_p95_secs)),
            ("continuity_mean", format!("{:?}", self.continuity_mean)),
            ("continuity_floor", format!("{:?}", self.continuity_floor)),
            ("switch_waiting_peak", self.switch_waiting_peak.to_string()),
            ("switch_drained_secs", opt(self.switch_drained_secs)),
            ("zap_p95_secs", format!("{:?}", self.zap_p95_secs)),
            (
                "admission_peak_queue",
                self.admission_peak_queue.to_string(),
            ),
            (
                "admission_p95_delay_secs",
                format!("{:?}", self.admission_p95_delay_secs),
            ),
        ]
    }
}

impl Default for Scorecard {
    fn default() -> Self {
        Scorecard {
            periods: 0,
            viewers: 0,
            startups: 0,
            startup_p50_secs: 0.0,
            startup_p95_secs: 0.0,
            startup_mean_secs: 0.0,
            stall_events: 0,
            stalls_per_viewer_hour: 0.0,
            stall_mean_secs: 0.0,
            stall_p95_secs: 0.0,
            continuity_mean: 1.0,
            continuity_floor: 1.0,
            switch_waiting_peak: 0,
            switch_drained_secs: None,
            zap_p95_secs: 0.0,
            admission_peak_queue: 0,
            admission_p95_delay_secs: 0.0,
        }
    }
}

impl fmt::Display for Scorecard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (key, value) in self.fields() {
            writeln!(f, "{key:>26}  {value}")?;
        }
        Ok(())
    }
}

/// The comparison of two scorecards (baseline → variant), printable as a
/// metric-by-metric delta table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScorecardDelta {
    /// The baseline scorecard.
    pub before: Scorecard,
    /// The variant scorecard.
    pub after: Scorecard,
}

impl fmt::Display for ScorecardDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:>26}  {:>14}  {:>14}  {:>14}",
            "metric", "before", "after", "delta"
        )?;
        for ((key, before), (_, after)) in self.before.fields().iter().zip(self.after.fields()) {
            let delta = match (before.parse::<f64>(), after.parse::<f64>()) {
                (Ok(b), Ok(a)) => {
                    let d = a - b;
                    if d == 0.0 {
                        "=".to_string()
                    } else {
                        format!("{d:+.4}")
                    }
                }
                _ if *before == after => "=".to_string(),
                _ => "~".to_string(),
            };
            writeln!(f, "{key:>26}  {before:>14}  {after:>14}  {delta:>14}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(period: u64, played: u64, stalled: u64) -> QoeWindow {
        QoeWindow::from_sample(&PeriodSample {
            period,
            viewers: 10,
            started: 10,
            startups: u64::from(period == 1) * 10,
            stall_begins: u64::from(stalled > 0),
            stall_ends: 0,
            stalled: u64::from(stalled > 0),
            played,
            stalled_segments: stalled,
            switch_waiting: 0,
        })
    }

    #[test]
    fn timeline_memory_is_bounded_for_any_run_length() {
        let mut t = Timeline::new(64);
        let reserved = t.slots.capacity();
        for period in 1..=120_000u64 {
            t.push(sample(period, 9, 1));
        }
        assert!(t.slots().len() <= 64);
        assert_eq!(
            t.slots.capacity(),
            reserved,
            "decimation must not grow the ring"
        );
        assert_eq!(t.samples(), 120_000);
        assert!(t.stride().is_power_of_two());
        assert!(t.stride() >= 120_000 / 64);
        // No sample is lost to decimation: the counters are conserved.
        let played: u64 = t.windows().map(|w| w.played).sum();
        let periods: u64 = t.windows().map(|w| w.periods).sum();
        assert_eq!(played, 120_000 * 9);
        assert_eq!(periods, 120_000);
    }

    #[test]
    fn decimation_is_deterministic() {
        let build = || {
            let mut t = Timeline::new(8);
            for period in 1..=1000u64 {
                t.push(sample(period, period % 7, period % 3));
            }
            t
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn decimation_merges_adjacent_windows_exactly() {
        let mut t = Timeline::new(4);
        for period in 1..=4u64 {
            t.push(sample(period, 10 + period, 0));
        }
        // Capacity hit at 4 pushes: one decimation to 2 slots of stride 2.
        assert_eq!(t.stride(), 2);
        assert_eq!(t.slots().len(), 2);
        let first = t.slots()[0];
        assert_eq!(first.start_period, 1);
        assert_eq!(first.periods, 2);
        assert_eq!(first.played, 11 + 12);
        assert_eq!(first.viewer_periods, 20);
        assert_eq!(first.viewers_peak, 10);
        let second = t.slots()[1];
        assert_eq!(second.start_period, 3);
        assert_eq!(second.played, 13 + 14);
        // The fifth push lands in a fresh pending window of stride 2.
        t.push(sample(5, 1, 0));
        assert_eq!(t.slots().len(), 2);
        assert_eq!(t.pending().unwrap().periods, 1);
    }

    #[test]
    fn channel_fold_sums_counters_and_peaks() {
        let build = |scale: u64| {
            let mut t = Timeline::new(4);
            for period in 1..=6u64 {
                t.push(sample(period, scale * period, scale));
            }
            t
        };
        let mut a = build(1);
        let b = build(2);
        a.fold_channel(&b);
        let played: u64 = a.windows().map(|w| w.played).sum();
        assert_eq!(played, (1..=6).sum::<u64>() * 3);
        assert_eq!(a.windows().next().unwrap().viewers_peak, 20);
    }

    #[test]
    #[should_panic(expected = "sample-count mismatch")]
    fn folding_misaligned_timelines_panics() {
        let mut a = Timeline::new(4);
        a.push(sample(1, 1, 0));
        let b = Timeline::new(4);
        a.fold_channel(&b);
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_capacity_is_rejected() {
        let _ = Timeline::<QoeWindow>::new(5);
    }

    #[test]
    fn depth_windows_track_peak_mean_and_last() {
        let mut t = Timeline::new(4);
        for (period, depth) in [(0u64, 0u64), (1, 40), (2, 25), (3, 10), (4, 0)] {
            t.push(DepthWindow::from_depth(period, depth));
        }
        let peak = t.windows().map(|w| w.peak).max().unwrap();
        assert_eq!(peak, 40);
        let total: u64 = t.windows().map(|w| w.sum).sum();
        assert_eq!(total, 75);
        assert_eq!(t.windows().last().unwrap().last, 0);
    }

    #[test]
    fn diff_renders_every_metric_with_deltas() {
        let base = Scorecard {
            periods: 10,
            continuity_mean: 0.9,
            ..Scorecard::default()
        };
        let variant = Scorecard {
            periods: 10,
            continuity_mean: 0.95,
            switch_drained_secs: Some(12.0),
            ..Scorecard::default()
        };
        let table = base.diff(&variant).to_string();
        assert!(table.contains("continuity_mean"));
        assert!(table.contains("+0.0500"));
        assert!(table.contains("periods"));
        // Unchanged numeric rows collapse to "=".
        assert!(table.contains('='));
    }

    #[test]
    fn scorecard_from_observations_summarises_the_timeline() {
        let tau = 3.5;
        let mut startup = QuantileSketch::new(tau);
        startup.record(tau);
        startup.record(2.0 * tau);
        let stall = QuantileSketch::new(tau);
        let mut qoe = Timeline::new(4);
        let mut with_switch = |period: u64, waiting: u64, played: u64, stalled: u64| {
            let mut w = sample(period, played, stalled);
            w.switch_waiting_peak = waiting;
            w.switch_waiting_last = waiting;
            qoe.push(w);
        };
        with_switch(1, 8, 10, 0);
        with_switch(2, 3, 6, 4);
        with_switch(3, 0, 10, 0);
        let mut depth = Timeline::new(4);
        for (p, d) in [(1u64, 5u64), (2, 2), (3, 0)] {
            depth.push(DepthWindow::from_depth(p, d));
        }
        let card =
            Scorecard::from_observations(3, 10, &startup, &stall, &qoe, &depth, 7.0, 0.0, tau);
        assert_eq!(card.startups, 10);
        // Two samples: rank rounding answers the upper one for p50.
        assert_eq!(card.startup_p50_secs, 2.0 * tau);
        assert_eq!(card.switch_waiting_peak, 8);
        // Waiting last seen >0 in period 2; drained by the end of that window.
        assert_eq!(card.switch_drained_secs, Some(3.0 * tau));
        assert_eq!(card.admission_peak_queue, 5);
        assert!((card.continuity_mean - 26.0 / 30.0).abs() < 1e-12);
        assert!((card.continuity_floor - 0.6).abs() < 1e-12);
        assert_eq!(card.stall_events, 0);
        assert!(card.stalls_per_viewer_hour > 0.0);
    }
}
