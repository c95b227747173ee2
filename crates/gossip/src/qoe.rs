//! Streaming QoE event recording on the playback hot path.
//!
//! The paper's headline claims — fast switch completion, uninterrupted
//! playback under churn — are *time-resolved* phenomena, so the recorder
//! turns the per-peer playback state machine into cheap counter-only events
//! **while the simulation runs**:
//!
//! * **startup** — the first period in which a peer's playback starts
//!   (`Q` consecutive segments buffered); its startup delay is the whole
//!   number of periods since the peer joined,
//! * **stall begin / stall end** — a started peer entering (first period
//!   with missed play opportunities) and leaving (first later period that
//!   plays without missing) a stall episode, with the episode duration in
//!   periods,
//! * **continuity** — segments played vs play opportunities missed, per
//!   period,
//! * **switch progress** — how many switch-countable peers have not yet
//!   completed the source switch, per period.
//!
//! Events accumulate into one [`PeriodSample`] row per period plus
//! cumulative [`QoeTotals`]; the recorder keeps **only the latest row**
//! (memory O(active peers), independent of run length) — bounded timelines over
//! the rows live in `fss-metrics`, which higher layers feed once per period.
//! The event path consumes no RNG and allocates nothing in steady state
//! (event buffers are pre-reserved; enforced by the counting-allocator
//! suite in `fss-bench`), so enabling it cannot change any simulated
//! result — only add observations.
//!
//! Sources are observed like every other peer; they hold every segment they
//! emit, so they start immediately and never stall.  A peer that departs
//! mid-stall simply stops being observed: its open episode never produces a
//! stall-end event (mirroring how a real player's session trace ends).

/// Per-peer QoE observation state: one column of the peer store's pages,
/// next to the switch records (ids are never reused; a released page
/// takes its slots with it).  Opaque: the fused period walk lends each
/// chunk its peers' slots and only ever touches them through
/// [`QoeLane::observe`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PeerQoe {
    /// Period at which the peer joined (0 for the initial population).
    birth_period: u64,
    /// `PlaybackState::stalls()` at the last observation — the delta against
    /// it is the number of play opportunities missed this period.
    last_stalls: u64,
    /// Period at which the current stall episode began.
    stall_from: u64,
    /// Whether playback had started at the last observation.
    started: bool,
    /// Whether the peer is currently inside a stall episode.
    stalled: bool,
}

impl PeerQoe {
    /// The slot of a peer joining at `period` (0 for the initial
    /// population): its startup delay counts from there.
    pub fn joining_at(period: u64) -> PeerQoe {
        PeerQoe {
            birth_period: period,
            ..PeerQoe::default()
        }
    }
}

/// One period's QoE counters for one channel — the row a bounded timeline
/// aggregates.  All fields are plain counters so rows merge by addition
/// (and max for the gauges) without floating-point order sensitivity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PeriodSample {
    /// Period index this row describes (1-based: the first `advance()` produces
    /// period 1).
    pub period: u64,
    /// Active peers observed this period (including sources).
    pub viewers: u64,
    /// Peers whose playback had started by the end of this period.
    pub started: u64,
    /// Playback startups (first frame) this period.
    pub startups: u64,
    /// Stall episodes that began this period.
    pub stall_begins: u64,
    /// Stall episodes that ended this period.
    pub stall_ends: u64,
    /// Peers inside a stall episode at the end of this period.
    pub stalled: u64,
    /// Segments played across all observed peers this period.
    pub played: u64,
    /// Play opportunities missed (stall ticks) across all observed peers
    /// this period.
    pub stalled_segments: u64,
    /// Switch-countable peers that had not completed the source switch by
    /// the end of this period (0 outside a switch window).
    pub switch_waiting: u64,
}

impl PeriodSample {
    /// Fraction of play opportunities met this period: `1.0` means perfectly
    /// continuous playback, `None` when no peer had anything to play.
    pub fn continuity(&self) -> Option<f64> {
        let opportunities = self.played + self.stalled_segments;
        (opportunities > 0).then(|| self.played as f64 / opportunities as f64)
    }
}

/// One period's QoE accumulation over some set of peers: the row counters
/// plus the startup-delay and stall-duration event buffers.
///
/// The recorder owns one lane for the period being recorded.  The fused
/// period walk gives every chunk a lane of its own and folds them into the
/// recorder with [`QoeRecorder::merge`] in chunk order: the counters are
/// integers (order-free sums) and the event buffers concatenate in
/// ascending peer order, so the merged row is byte-identical to one serial
/// observation sweep.
#[derive(Debug, Clone, Default)]
pub struct QoeLane {
    row: PeriodSample,
    /// Startup delays (whole periods) of this period's startups.
    startup_delays: Vec<u64>,
    /// Durations (whole periods) of stall episodes ended this period.
    stall_durations: Vec<u64>,
}

impl QoeLane {
    /// Opens the lane for `period`, clearing counters and event buffers.
    pub fn begin(&mut self, period: u64) {
        self.row = PeriodSample {
            period,
            ..PeriodSample::default()
        };
        self.startup_delays.clear();
        self.stall_durations.clear();
    }

    /// Sizes the event buffers for `peers` observations (at most one event
    /// of each kind per peer and period), so observing never allocates.
    pub fn reserve(&mut self, peers: usize) {
        for events in [&mut self.startup_delays, &mut self.stall_durations] {
            if events.capacity() < peers {
                events.reserve(peers - events.len());
            }
        }
    }

    /// Observes one peer after its playback advanced this period.
    ///
    /// `state` is the peer's observation slot; `started` / `stalls` are its
    /// post-advance `PlaybackState::has_started()` / `stalls()`; `played` is
    /// the number of segments it played this period.  Reads and writes only
    /// that slot and this lane — never another peer's state.
    #[inline]
    pub fn observe(&mut self, state: &mut PeerQoe, started: bool, stalls: u64, played: u64) {
        let period = self.row.period;
        let row = &mut self.row;
        row.viewers += 1;
        row.played += played;

        if started && !state.started {
            state.started = true;
            row.startups += 1;
            self.startup_delays
                .push(period.saturating_sub(state.birth_period));
        }
        if started {
            row.started += 1;
        }

        let missed = stalls.saturating_sub(state.last_stalls);
        state.last_stalls = stalls;
        row.stalled_segments += missed;
        if missed > 0 {
            if !state.stalled {
                state.stalled = true;
                state.stall_from = period;
                row.stall_begins += 1;
            }
        } else if played > 0 && state.stalled {
            // A period that plays without missing ends the episode; a period
            // with nothing to do (no play budget) leaves it open.
            state.stalled = false;
            row.stall_ends += 1;
            self.stall_durations
                .push(period.saturating_sub(state.stall_from));
        }
        if state.stalled {
            row.stalled += 1;
        }
    }
}

/// Cumulative QoE counters over a whole run — the O(1)-size aggregate
/// surfaced in `SystemReport`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QoeTotals {
    /// Periods observed with telemetry enabled.
    pub periods: u64,
    /// Playback startups (first frames).
    pub startups: u64,
    /// Sum of startup delays, in whole periods.
    pub startup_delay_periods: u64,
    /// Completed stall episodes.
    pub stall_events: u64,
    /// Sum of completed stall-episode durations, in whole periods.
    pub stall_periods: u64,
    /// Segments played across all observed peers.
    pub played: u64,
    /// Play opportunities missed across all observed peers.
    pub stalled_segments: u64,
    /// Most peers simultaneously inside a stall episode in any period.
    pub peak_stalled: u64,
}

impl QoeTotals {
    /// Run-wide playback continuity (`None` before anything played).
    pub fn continuity(&self) -> Option<f64> {
        let opportunities = self.played + self.stalled_segments;
        (opportunities > 0).then(|| self.played as f64 / opportunities as f64)
    }
}

/// Counter-only QoE event recorder driven from the playback pass of
/// `StreamingSystem::advance`.
///
/// The per-peer observation slots ([`PeerQoe`]) live with the peers, in
/// the peer store; the recorder holds only the period's row, its event
/// buffers and the totals.  It owns no aggregation beyond the current
/// period: callers read
/// [`latest`](Self::latest) plus the per-period event buffers
/// ([`startup_delays_periods`](Self::startup_delays_periods),
/// [`stall_durations_periods`](Self::stall_durations_periods)) after each
/// step and feed whatever bounded structure they maintain.
#[derive(Debug, Clone)]
pub struct QoeRecorder {
    enabled: bool,
    /// The row (and event buffers) being accumulated during the current
    /// playback pass.
    current: QoeLane,
    /// The last completed row (`current` of the previous period).
    latest: Option<PeriodSample>,
    totals: QoeTotals,
}

impl QoeRecorder {
    /// Creates an enabled recorder whose event buffers are pre-reserved for
    /// `active` observed peers, so the steady state never allocates.
    pub fn with_capacity(active: usize) -> Self {
        let mut current = QoeLane::default();
        current.reserve(active);
        QoeRecorder {
            enabled: true,
            current,
            latest: None,
            totals: QoeTotals::default(),
        }
    }

    /// Whether events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Turns event recording on or off.  Disabling keeps the accumulated
    /// totals; only new periods go unobserved.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Keeps the event buffers large enough for `active` observed peers —
    /// each emits at most one event of each kind a period — so per-period
    /// pushes never allocate.  Called on joins, which already allocate
    /// protocol state, so growing here is free of steady-state cost.
    pub fn reserve(&mut self, active: usize) {
        self.current.reserve(active);
    }

    /// Opens the row of `period`, clearing the per-period event buffers.
    pub fn begin_period(&mut self, period: u64) {
        self.current.begin(period);
    }

    /// Observes one peer, through its observation slot `state`, after its
    /// playback advanced this period.
    ///
    /// `started` / `stalls` are the peer's post-advance
    /// `PlaybackState::has_started()` / `stalls()`; `played` is the number
    /// of segments it played this period.
    ///
    /// Callers must observe active peers in **ascending id order** exactly
    /// once per period, between `begin_period` and `finish_period` — or
    /// observe disjoint ascending runs into [`QoeLane`]s and
    /// [`merge`](Self::merge) those in run order, which is what the fused
    /// period walk does per chunk.
    #[inline]
    pub fn observe(&mut self, state: &mut PeerQoe, started: bool, stalls: u64, played: u64) {
        self.current.observe(state, started, stalls, played);
    }

    /// Folds one chunk's lane into the current row: counters add, event
    /// buffers append.  Merging lanes of consecutive ascending peer runs in
    /// run order reproduces a serial [`observe`](Self::observe) sweep
    /// exactly.
    pub fn merge(&mut self, lane: &QoeLane) {
        let row = &mut self.current.row;
        let part = &lane.row;
        row.viewers += part.viewers;
        row.started += part.started;
        row.startups += part.startups;
        row.stall_begins += part.stall_begins;
        row.stall_ends += part.stall_ends;
        row.stalled += part.stalled;
        row.played += part.played;
        row.stalled_segments += part.stalled_segments;
        self.current
            .startup_delays
            .extend_from_slice(&lane.startup_delays);
        self.current
            .stall_durations
            .extend_from_slice(&lane.stall_durations);
    }

    /// Closes the current row: stamps the switch-progress gauge, folds the
    /// row into the totals and publishes it as [`latest`](Self::latest).
    pub fn finish_period(&mut self, switch_waiting: u64) {
        self.current.row.switch_waiting = switch_waiting;
        let row = self.current.row;
        self.totals.periods += 1;
        self.totals.startups += row.startups;
        self.totals.startup_delay_periods += self.current.startup_delays.iter().sum::<u64>();
        self.totals.stall_events += row.stall_ends;
        self.totals.stall_periods += self.current.stall_durations.iter().sum::<u64>();
        self.totals.played += row.played;
        self.totals.stalled_segments += row.stalled_segments;
        self.totals.peak_stalled = self.totals.peak_stalled.max(row.stalled);
        self.latest = Some(row);
    }

    /// The last completed period's row (`None` before the first observed
    /// period).
    pub fn latest(&self) -> Option<&PeriodSample> {
        self.latest.as_ref()
    }

    /// Cumulative counters over every observed period.
    pub fn totals(&self) -> QoeTotals {
        self.totals
    }

    /// Startup delays (whole periods) of the startups in the last observed
    /// period.
    pub fn startup_delays_periods(&self) -> &[u64] {
        &self.current.startup_delays
    }

    /// Durations (whole periods) of the stall episodes that ended in the
    /// last observed period.
    pub fn stall_durations_periods(&self) -> &[u64] {
        &self.current.stall_durations
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A recorder with its peers' observation slots, indexed by peer (in a
    /// running system the slots live in the peer store).
    struct Recorder {
        rec: QoeRecorder,
        slots: Vec<PeerQoe>,
    }

    impl std::ops::Deref for Recorder {
        type Target = QoeRecorder;
        fn deref(&self) -> &QoeRecorder {
            &self.rec
        }
    }

    impl std::ops::DerefMut for Recorder {
        fn deref_mut(&mut self) -> &mut QoeRecorder {
            &mut self.rec
        }
    }

    /// A recorder over `n` initial peers.
    fn recorder(n: usize) -> Recorder {
        Recorder {
            rec: QoeRecorder::with_capacity(n),
            slots: vec![PeerQoe::joining_at(0); n],
        }
    }

    fn observe_period(
        recorder: &mut Recorder,
        period: u64,
        obs: &[(usize, bool, u64, u64)],
    ) -> PeriodSample {
        let Recorder { rec, slots } = recorder;
        rec.begin_period(period);
        for &(peer, started, stalls, played) in obs {
            rec.observe(&mut slots[peer], started, stalls, played);
        }
        rec.finish_period(0);
        *rec.latest().unwrap()
    }

    #[test]
    fn startup_is_reported_once_with_its_delay() {
        let mut rec = recorder(2);
        let row = observe_period(&mut rec, 1, &[(0, false, 0, 0), (1, false, 0, 0)]);
        assert_eq!((row.startups, row.started), (0, 0));
        let row = observe_period(&mut rec, 2, &[(0, true, 0, 2), (1, false, 0, 0)]);
        assert_eq!((row.startups, row.started), (1, 1));
        assert_eq!(rec.startup_delays_periods(), &[2]);
        // Started stays started: no second startup event.
        let row = observe_period(&mut rec, 3, &[(0, true, 0, 2), (1, true, 0, 2)]);
        assert_eq!((row.startups, row.started), (1, 2));
        assert_eq!(rec.startup_delays_periods(), &[3]);
        assert_eq!(rec.totals().startups, 2);
        assert_eq!(rec.totals().startup_delay_periods, 5);
    }

    #[test]
    fn one_stall_episode_yields_one_begin_one_end_and_the_exact_duration() {
        let mut rec = recorder(1);
        observe_period(&mut rec, 1, &[(0, true, 0, 2)]);
        // Misses opportunities over periods 2..=4 (cumulative stalls 1,3,4).
        let row = observe_period(&mut rec, 2, &[(0, true, 1, 1)]);
        assert_eq!(
            (row.stall_begins, row.stalled, row.stalled_segments),
            (1, 1, 1)
        );
        let row = observe_period(&mut rec, 3, &[(0, true, 3, 0)]);
        assert_eq!(
            (row.stall_begins, row.stalled, row.stalled_segments),
            (0, 1, 2)
        );
        observe_period(&mut rec, 4, &[(0, true, 4, 1)]);
        // A no-budget period (nothing played, nothing missed) keeps the
        // episode open...
        let row = observe_period(&mut rec, 5, &[(0, true, 4, 0)]);
        assert_eq!((row.stall_ends, row.stalled), (0, 1));
        // ...and the first clean playing period closes it: 4 periods long
        // (began at 2, ended at 6).
        let row = observe_period(&mut rec, 6, &[(0, true, 4, 2)]);
        assert_eq!((row.stall_ends, row.stalled), (1, 0));
        assert_eq!(rec.stall_durations_periods(), &[4]);
        let totals = rec.totals();
        assert_eq!(totals.stall_events, 1);
        assert_eq!(totals.stall_periods, 4);
        assert_eq!(totals.stalled_segments, 4);
        assert_eq!(totals.peak_stalled, 1);
    }

    #[test]
    fn continuity_counts_played_against_missed_opportunities() {
        let mut rec = recorder(2);
        let row = observe_period(&mut rec, 1, &[(0, true, 1, 3), (1, true, 0, 4)]);
        assert_eq!(row.played, 7);
        assert_eq!(row.stalled_segments, 1);
        assert_eq!(row.continuity(), Some(7.0 / 8.0));
        assert_eq!(rec.totals().continuity(), Some(7.0 / 8.0));
        let empty = PeriodSample::default();
        assert_eq!(empty.continuity(), None);
    }

    #[test]
    fn disabled_recorder_keeps_existing_totals() {
        let mut rec = recorder(1);
        observe_period(&mut rec, 1, &[(0, true, 0, 2)]);
        let before = rec.totals();
        rec.set_enabled(false);
        assert!(!rec.is_enabled());
        assert_eq!(rec.totals(), before);
    }

    /// Lanes over consecutive ascending peer runs, merged in run order,
    /// reproduce one serial observation sweep: same row, same event
    /// buffers in the same order, same totals.
    #[test]
    fn merged_lanes_match_a_serial_sweep() {
        let periods: [&[(usize, bool, u64, u64)]; 3] = [
            &[
                (0, true, 0, 2),
                (1, false, 0, 0),
                (2, true, 1, 1),
                (3, true, 0, 2),
            ],
            &[
                (0, true, 2, 0),
                (1, true, 0, 2),
                (2, true, 1, 2),
                (3, true, 3, 0),
            ],
            &[
                (0, true, 2, 2),
                (1, true, 0, 2),
                (2, true, 1, 2),
                (3, true, 3, 1),
            ],
        ];
        let mut serial = recorder(4);
        let mut merged = recorder(4);
        let mut lanes = [QoeLane::default(), QoeLane::default()];
        for (i, obs) in periods.iter().enumerate() {
            let period = i as u64 + 1;
            let row = observe_period(&mut serial, period, obs);

            merged.begin_period(period);
            let (low, high) = merged.slots.split_at_mut(2);
            for (lane, states, run) in [(0, low, &obs[..2]), (1, high, &obs[2..])] {
                lanes[lane].begin(period);
                for (state, &(_, started, stalls, played)) in states.iter_mut().zip(run) {
                    lanes[lane].observe(state, started, stalls, played);
                }
            }
            for lane in &lanes {
                merged.merge(lane);
            }
            merged.finish_period(0);
            assert_eq!(merged.latest(), Some(&row), "period {period}");
            assert_eq!(
                merged.startup_delays_periods(),
                serial.startup_delays_periods()
            );
            assert_eq!(
                merged.stall_durations_periods(),
                serial.stall_durations_periods()
            );
        }
        assert_eq!(merged.totals(), serial.totals());
        assert!(serial.totals().stall_events > 0 && serial.totals().startups > 0);
    }

    #[test]
    fn joiners_measure_startup_delay_from_their_birth_period() {
        let mut rec = recorder(1);
        observe_period(&mut rec, 1, &[(0, true, 0, 2)]);
        rec.slots.push(PeerQoe::joining_at(5));
        let active = rec.slots.len();
        rec.reserve(active);
        let row = observe_period(&mut rec, 7, &[(0, true, 0, 2), (1, true, 0, 1)]);
        assert_eq!(row.startups, 1);
        assert_eq!(rec.startup_delays_periods(), &[2]);
    }
}
