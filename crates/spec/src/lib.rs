//! Executable specification of one **lockstep** gossip period, and the
//! exact supplier-assignment solver ([`optimal`]) the greedy heuristic is
//! measured against.
//!
//! [`Spec`] restates the paper's pull protocol as plain, allocating
//! `BTreeMap`/`Vec` code over the public API of `fss-gossip`: buffer-map
//! exchange and discovery, a per-id-probing context builder, scheduling
//! through [`SegmentScheduler::schedule_into`] on a fresh scratch, a
//! per-link grant rule written as a map of supplier → requester → queue,
//! delivery, playback, switch milestones, ratio tracks, traffic and QoE.
//! Its [`SystemReport`] must equal `StreamingSystem::advance`'s in
//! lockstep, period by period.  It owns its protocol state and reads from
//! the system only what churn decides.  `README.md` next to this crate lays
//! the period out as state, messages and transitions.

#![warn(clippy::unwrap_used, clippy::expect_used)]

use fss_gossip::qoe::PeerQoe;
use fss_gossip::{
    DeliveredSegment, FifoBuffer, GossipConfig, MemUsage, PlaybackState, QoeRecorder, RatioSample,
    SchedulerScratch, SchedulingContext, SegmentId, SegmentRequest, SegmentScheduler, Session,
    SessionDirectory, SessionView, StreamingSystem, SupplierInfo, SwitchRecord, SwitchStats,
    SystemReport, TrafficCounters, PEER_INLINE_BYTES,
};
use fss_overlay::{Overlay, PeerId};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

pub mod optimal;

pub use optimal::{optimal_assign, OptimalAssignment, MAX_EXACT_CANDIDATES};

/// One peer's protocol state.
struct Peer {
    buffer: FifoBuffer,
    playback: PlaybackState,
    /// How many sessions (a prefix of the directory) the peer knows.
    known_sessions: usize,
    /// Fractional playback credit carried across periods.
    play_credit: f64,
    /// QoE observation state.
    qoe: PeerQoe,
}

impl Peer {
    /// The state the spec keeps for a peer the system released: empty, and
    /// never read again.
    fn departed() -> Peer {
        Peer {
            buffer: FifoBuffer::default(),
            playback: PlaybackState::new(SegmentId(0)),
            known_sessions: 0,
            play_credit: 0.0,
            qoe: PeerQoe::default(),
        }
    }

    /// Segments of `session` in `[max(id_play, first), end]` the peer does
    /// not hold; `end` falls back to `fallback_end` for a live session.
    fn undelivered_in(&self, session: &Session, fallback_end: SegmentId) -> usize {
        let end = session.last_segment.unwrap_or(fallback_end);
        let start = self.playback.next_play().max(session.first_segment);
        if end < start {
            return 0;
        }
        (start.value()..=end.value())
            .filter(|&id| !self.buffer.contains(SegmentId(id)))
            .count()
    }

    /// `Q2`: how many of the first `qs` segments of `session` are missing.
    fn q2(&self, session: &Session, qs: usize) -> usize {
        let first = session.first_segment.value();
        (first..first + qs as u64)
            .filter(|&id| !self.buffer.contains(SegmentId(id)))
            .count()
    }
}

/// The latest source switch.
#[derive(Debug, Clone, Copy)]
struct Switch {
    /// The session switched from, closed at `old_end`.
    old: Session,
    old_end: SegmentId,
    /// The session switched to.
    new: Session,
    /// Simulation time of the switch, in seconds.
    at: f64,
}

/// One period's requests of one peer: `(requester, inbound budget,
/// requests in priority order)`.
type Batch = (PeerId, usize, Vec<SegmentRequest>);

/// The executable specification: one lockstep period at a time.
pub struct Spec {
    config: GossipConfig,
    scheduler: Box<dyn SegmentScheduler>,
    directory: SessionDirectory,
    /// Every peer slot the system ever allocated, indexed by id.
    peers: Vec<Peer>,
    /// Membership as of the last synchronisation.
    active: BTreeSet<PeerId>,
    next_emit: SegmentId,
    emit_credit: f64,
    periods: u64,
    traffic_total: TrafficCounters,
    traffic_switch_window: TrafficCounters,
    switch: Option<Switch>,
    switch_records: Vec<SwitchRecord>,
    ratio_samples: Vec<RatioSample>,
    switch_completed_secs: Option<f64>,
    qoe: QoeRecorder,
    /// The last period's deliveries, supplier-major.
    deliveries: Vec<DeliveredSegment>,
}

impl Spec {
    /// Snapshots `sys` — protocol state, directory, emission cursor,
    /// counters, switch state and QoE — so stepping the spec continues the
    /// run exactly where the system stands.  `scheduler` must be the
    /// policy the system runs.  An id whose store page the system released
    /// becomes a departed peer with empty state: nothing reads it again.
    ///
    /// # Panics
    /// Panics if a network model is installed: the spec models lockstep
    /// only.  Panics if a released id is active.
    pub fn from_system(sys: &StreamingSystem, scheduler: Box<dyn SegmentScheduler>) -> Spec {
        assert!(
            sys.network().is_none(),
            "the spec models lockstep only; uninstall the network model"
        );
        let store = sys.peer_store();
        let (peers, switch_records) = (0..store.len() as PeerId)
            .map(|id| match store.switch_record(id) {
                None => {
                    assert!(
                        !sys.overlay().graph().is_active(id),
                        "peer {id} is active but its page was released"
                    );
                    let departed = SwitchRecord {
                        departed: true,
                        ..SwitchRecord::default()
                    };
                    (Peer::departed(), departed)
                }
                Some(&record) => {
                    let header = store.header(id);
                    let peer = Peer {
                        buffer: store.buffer(id).clone(),
                        playback: header.playback.clone(),
                        known_sessions: header.known_sessions,
                        play_credit: header.play_credit,
                        qoe: *store.qoe(id),
                    };
                    (peer, record)
                }
            })
            .unzip();
        let directory = sys.directory().clone();
        // Sessions are serial: the latest switch went from the
        // second-to-last session to the last one, at the last one's start.
        let switch = match directory.sessions() {
            [.., old, new] => old.last_segment.map(|old_end| Switch {
                old: *old,
                old_end,
                new: *new,
                at: new.start_secs,
            }),
            _ => None,
        };
        let (next_emit, emit_credit) = sys.emission();
        let report = sys.report();
        Spec {
            config: *sys.config(),
            scheduler,
            directory,
            peers,
            active: sys.overlay().active_peers().collect(),
            next_emit,
            emit_credit,
            periods: sys.periods(),
            traffic_total: report.traffic_total,
            traffic_switch_window: report.traffic_switch_window,
            switch,
            switch_records,
            ratio_samples: report.ratio_samples,
            switch_completed_secs: report.switch_completed_secs,
            qoe: sys.qoe().clone(),
            deliveries: Vec::new(),
        }
    }

    /// Starts the first session at `source` (mirrors
    /// `StreamingSystem::start_initial_source`).
    pub fn start_initial_source(&mut self, source: PeerId) {
        assert!(self.directory.is_empty(), "initial source already started");
        self.directory.start_session(source, self.now_secs(), None);
        self.next_emit = SegmentId(0);
        self.discover(source, SegmentId(0));
    }

    /// Hands the stream over to `new_source` (mirrors
    /// `StreamingSystem::switch_source`; call it right after the system's).
    /// Membership is synchronised first, since external departures and
    /// arrivals may have happened since the last period.
    ///
    /// # Panics
    /// Panics if no session is live.
    pub fn switch_source(&mut self, sys: &StreamingSystem, new_source: PeerId) {
        self.sync_membership(sys);
        let last_emitted = SegmentId(self.next_emit.value().saturating_sub(1));
        let now = self.now_secs();
        self.directory
            .start_session(new_source, now, Some(last_emitted));
        let [.., old, new] = *self.directory.sessions() else {
            panic!("a live session is required to switch from");
        };
        self.discover(new_source, new.first_segment);

        self.switch = Some(Switch {
            old,
            old_end: last_emitted,
            new,
            at: now,
        });
        self.switch_completed_secs = None;
        self.traffic_switch_window = TrafficCounters::new();
        self.ratio_samples.clear();
        for record in self.switch_records.iter_mut() {
            *record = SwitchRecord::default();
        }
        for &p in &self.active {
            let record = &mut self.switch_records[p as usize];
            record.present_at_switch = true;
            record.q0 = self.peers[p as usize].undelivered_in(&old, last_emitted);
        }
        // The new source is not a switching node.
        self.switch_records[new_source as usize].present_at_switch = false;
    }

    /// Runs one lockstep period against the membership, neighbour sets and
    /// bandwidths `sys` holds now — call it right after `sys.advance()`,
    /// which applied this period's churn.
    pub fn step(&mut self, sys: &StreamingSystem) {
        let overlay = sys.overlay();
        let before = self.traffic_total;
        self.sync_membership(sys);
        self.emit();
        let batches = self.exchange_and_schedule(overlay);
        self.grant_and_deliver(overlay, &batches);
        self.periods += 1;
        self.play_and_record();
        if self.switch.is_some() && self.switch_completed_secs.is_none() {
            self.traffic_switch_window.merge(&TrafficCounters {
                control_bits: self.traffic_total.control_bits - before.control_bits,
                data_bits: self.traffic_total.data_bits - before.data_bits,
            });
            let countable = || self.switch_records.iter().filter(|r| r.countable());
            if countable().next().is_some() && countable().all(|r| r.completed()) {
                self.switch_completed_secs = Some(self.secs_since_switch());
            }
        }
    }

    /// The report `StreamingSystem::report` would give for the same run.
    pub fn report(&self) -> SystemReport {
        let mut mem = MemUsage {
            peer_slots: self.peers.len(),
            ..MemUsage::default()
        };
        for &p in &self.active {
            let breakdown = self.peers[p as usize].buffer.mem_breakdown();
            mem.add_peer(PEER_INLINE_BYTES, breakdown);
        }
        SystemReport {
            scheduler: self.scheduler.name(),
            switch: SwitchStats::from_records(&self.switch_records),
            ratio_samples: self.ratio_samples.clone(),
            traffic_total: self.traffic_total,
            traffic_switch_window: self.traffic_switch_window,
            periods: self.periods,
            switch_completed_secs: self.switch_completed_secs,
            mem,
            qoe: self.qoe.totals(),
        }
    }

    /// Compares the system's switch records with the spec's, id by id over
    /// every id assigned: where the system still holds a record it must
    /// equal the spec's, and where the system released the id's page the
    /// peer must be departed in the spec.  The error names the first id
    /// that disagrees.
    pub fn check_switch_records(&self, sys: &StreamingSystem) -> Result<(), String> {
        let ids = sys.peer_store().len();
        if ids != self.switch_records.len() {
            return Err(format!(
                "the system assigned {ids} ids, the spec {}",
                self.switch_records.len()
            ));
        }
        for (id, spec) in (0..).zip(&self.switch_records) {
            match sys.switch_record(id) {
                Some(record) if record == spec => {}
                Some(record) => {
                    return Err(format!("peer {id}: system {record:?}, spec {spec:?}"));
                }
                None if self.active.contains(&id) => {
                    return Err(format!(
                        "peer {id}: released by the system, active in the spec"
                    ));
                }
                None => {}
            }
        }
        Ok(())
    }

    /// The last period's deliveries, supplier-major (supplier ascending,
    /// then requester ascending, then the requester's priority order).
    pub fn deliveries(&self) -> &[DeliveredSegment] {
        &self.deliveries
    }

    /// A peer's buffer.
    pub fn buffer(&self, peer: PeerId) -> &FifoBuffer {
        &self.peers[peer as usize].buffer
    }

    fn now_secs(&self) -> f64 {
        self.periods as f64 * self.config.tau_secs
    }

    fn secs_since_switch(&self) -> f64 {
        self.switch
            .map_or(0.0, |switch| self.now_secs() - switch.at)
    }

    /// Learns every session whose first segment is at or below `observed`.
    fn discover(&mut self, peer: PeerId, observed: SegmentId) {
        let sessions = self.directory.sessions();
        let known = &mut self.peers[peer as usize].known_sessions;
        while *known < sessions.len() && sessions[*known].first_segment <= observed {
            *known += 1;
        }
    }

    /// Adopts the membership churn and external zaps decided: newcomers get
    /// a slot with a QoE slot, a switch record and the system's join point;
    /// peers that left are marked departed and their buffers released.
    fn sync_membership(&mut self, sys: &StreamingSystem) {
        let overlay = sys.overlay();
        let known_slots = self.peers.len();
        for id in known_slots..overlay.graph().capacity() {
            let mut playback = PlaybackState::new(SegmentId(0));
            playback.rejoin_at(sys.peer(id as PeerId).playback().join_point());
            self.peers.push(Peer {
                buffer: FifoBuffer::new(self.config.buffer_capacity),
                playback,
                known_sessions: 0,
                play_credit: 0.0,
                qoe: PeerQoe::joining_at(self.periods),
            });
            self.switch_records.push(SwitchRecord::default());
        }
        let now: BTreeSet<PeerId> = overlay.active_peers().collect();
        let left = self.active.iter().copied().filter(|p| !now.contains(p));
        let arrived_and_left =
            (known_slots..self.peers.len()).filter(|&id| !now.contains(&(id as PeerId)));
        let departed: Vec<usize> = left.map(|p| p as usize).chain(arrived_and_left).collect();
        for id in departed {
            self.switch_records[id].departed = true;
            self.peers[id].buffer = FifoBuffer::default();
        }
        self.active = now;
    }

    /// The live source emits `p·τ` segments (fractions carry over).
    fn emit(&mut self) {
        let Some(live) = self.directory.live().copied() else {
            return;
        };
        self.emit_credit += self.config.play_rate * self.config.tau_secs;
        let count = self.emit_credit.floor() as u64;
        self.emit_credit -= count as f64;
        for _ in 0..count {
            self.peers[live.source_peer as usize]
                .buffer
                .insert(self.next_emit);
            self.next_emit = self.next_emit.next();
        }
    }

    /// Buffer-map exchange: every active peer discovers the sessions its
    /// own and its neighbours' buffers reveal, then each peer with
    /// neighbours pays one buffer map per neighbour and, if it can receive,
    /// schedules its requests.
    fn exchange_and_schedule(&mut self, overlay: &Overlay) -> Vec<Batch> {
        let active: Vec<PeerId> = self.active.iter().copied().collect();
        for &p in &active {
            let observed = std::iter::once(p)
                .chain(overlay.neighbors(p).iter().copied())
                .filter_map(|n| self.peers[n as usize].buffer.max_id())
                .max()
                .unwrap_or(SegmentId(0));
            self.discover(p, observed);
        }

        let mut batches = Vec::new();
        for &p in &active {
            let neighbors = overlay.neighbors(p);
            if neighbors.is_empty() {
                continue;
            }
            self.traffic_total
                .add_control(self.config.buffermap_bits() * neighbors.len() as u64);
            let inbound = overlay.attrs(p).map_or(0.0, |a| a.bandwidth.inbound);
            if inbound <= 0.0 {
                continue;
            }
            let Some(ctx) = self.context(p, inbound, overlay) else {
                continue;
            };
            let mut requests = Vec::new();
            self.scheduler
                .schedule_into(&ctx, &mut SchedulerScratch::default(), &mut requests);
            if !requests.is_empty() {
                batches.push((p, ctx.inbound_budget(), requests));
            }
        }
        batches
    }

    /// The scheduling context of `p`: its missing ids of the stream it is
    /// playing (capped to a trailing `2·B` window below the highest id its
    /// neighbours advertise), then those of the next discovered session,
    /// each with the neighbours holding it, in neighbour order.
    fn context(&self, p: PeerId, inbound: f64, overlay: &Overlay) -> Option<SchedulingContext> {
        let peer = &self.peers[p as usize];
        let known = &self.directory.sessions()[..peer.known_sessions];
        let id_play = peer.playback.next_play();
        let current_idx = known.iter().rposition(|s| s.first_segment <= id_play);
        let current = known.get(current_idx.unwrap_or(0))?;
        let next = known.get(current_idx.unwrap_or(0) + 1);
        let neighbors = overlay.neighbors(p);
        let max_advertised = neighbors
            .iter()
            .filter_map(|&n| self.peers[n as usize].buffer.max_id())
            .max()
            .unwrap_or(SegmentId(0));

        let current_end = current
            .last_segment
            .unwrap_or(max_advertised)
            .min(max_advertised);
        let window_start = current_end
            .value()
            .saturating_sub(2 * self.config.buffer_capacity as u64);
        let current_start = id_play
            .max(current.first_segment)
            .max(SegmentId(window_start));
        let mut needed: Vec<u64> = (current_start.value()..=current_end.value()).collect();
        if let Some(next) = next {
            let next_end = next
                .last_segment
                .unwrap_or(max_advertised)
                .min(max_advertised);
            needed.extend(next.first_segment.value()..=next_end.value());
        }

        let view = |s: &Session| SessionView {
            id: s.id,
            first_segment: s.first_segment,
            last_segment: s.last_segment,
        };
        let mut ctx = SchedulingContext {
            tau_secs: self.config.tau_secs,
            play_rate: self.config.play_rate,
            inbound_rate: inbound,
            id_play,
            startup_q: self.config.startup_q,
            new_source_qs: self.config.new_source_qs,
            old_session: Some(view(current)),
            new_session: next.map(view),
            q1: peer.undelivered_in(current, max_advertised),
            q2: next.map_or(0, |n| peer.q2(n, self.config.new_source_qs)),
            ..SchedulingContext::default()
        };
        for &n in neighbors {
            let rate = overlay.attrs(n).map_or(0.0, |a| a.bandwidth.outbound);
            ctx.push_neighbour(n, rate, self.peers[n as usize].buffer.capacity());
        }
        for id in needed.into_iter().map(SegmentId) {
            if peer.buffer.contains(id) {
                continue;
            }
            let suppliers: Vec<SupplierInfo> = (0..)
                .zip(neighbors)
                .filter_map(|(slot, &n)| {
                    let position = self.peers[n as usize].buffer.position_from_tail(id)?;
                    Some(SupplierInfo {
                        slot,
                        buffer_position: position as u32,
                    })
                })
                .collect();
            if !suppliers.is_empty() {
                ctx.push_candidate(id, suppliers);
            }
        }
        (!ctx.candidates.is_empty()).then_some(ctx)
    }

    /// The per-link grant rule: each requester keeps its first
    /// `inbound_budget` requests (a repeated segment keeps its first
    /// supplier); each supplier → requester link then carries the first
    /// `⌊o·τ⌋` of that requester's kept requests to the supplier.  The
    /// grants are delivered supplier by supplier, requester by requester.
    fn grant_and_deliver(&mut self, overlay: &Overlay, batches: &[Batch]) {
        let mut links: BTreeMap<PeerId, BTreeMap<PeerId, VecDeque<SegmentId>>> = BTreeMap::new();
        for (requester, inbound_budget, requests) in batches {
            let mut kept = BTreeSet::new();
            for r in requests.iter().take(*inbound_budget) {
                if kept.insert(r.segment) {
                    links
                        .entry(r.supplier)
                        .or_default()
                        .entry(*requester)
                        .or_default()
                        .push_back(r.segment);
                }
            }
        }
        self.deliveries.clear();
        for (supplier, queues) in links {
            let outbound = overlay
                .attrs(supplier)
                .map_or(0.0, |a| a.bandwidth.outbound);
            let budget = if self.active.contains(&supplier) {
                (outbound * self.config.tau_secs).floor() as usize
            } else {
                0
            };
            for (requester, queue) in queues {
                for segment in queue.into_iter().take(budget) {
                    self.peers[requester as usize].buffer.insert(segment);
                    self.traffic_total.add_data(self.config.segment_bits);
                    self.deliveries.push(DeliveredSegment {
                        requester,
                        supplier,
                        segment,
                    });
                }
            }
        }
    }

    /// Every active peer plays, in id order: startup after `Q` consecutive
    /// segments from the join point, `p·τ` segments a period, and a newly
    /// discovered session gated until its first `Qs` segments are held.
    /// QoE observes each peer after its advance; then the switch
    /// milestones and the ratio tracks are recorded.
    fn play_and_record(&mut self) {
        let qoe_on = self.qoe.is_enabled();
        if qoe_on {
            self.qoe.begin_period(self.periods);
        }
        let (startup_q, qs) = (self.config.startup_q, self.config.new_source_qs);
        for &p in &self.active {
            let peer = &mut self.peers[p as usize];
            let mut played = 0;
            if peer.playback.try_start(&peer.buffer, startup_q) {
                peer.play_credit += self.config.play_rate * self.config.tau_secs;
                let budget = peer.play_credit.floor() as u64;
                if budget > 0 {
                    peer.play_credit -= budget as f64;
                    let gate = self.directory.sessions()[..peer.known_sessions]
                        .iter()
                        .filter(|s| {
                            s.first_segment > peer.playback.join_point()
                                && s.first_segment >= peer.playback.next_play()
                        })
                        .find(|s| peer.q2(s, qs) != 0)
                        .map(|s| s.first_segment);
                    played = peer.playback.advance(&peer.buffer, budget, gate);
                }
            }
            if qoe_on {
                let playback = &peer.playback;
                let (started, stalls) = (playback.has_started(), playback.stalls());
                self.qoe.observe(&mut peer.qoe, started, stalls, played);
            }
        }
        let waiting = self.record_milestones();
        if qoe_on {
            self.qoe.finish_period(waiting);
        }
    }

    /// Updates every countable peer's milestones, appends the ratio sample
    /// and returns how many countable peers have not completed the switch.
    fn record_milestones(&mut self) -> u64 {
        let Some(Switch {
            old, old_end, new, ..
        }) = self.switch
        else {
            return 0;
        };
        let since_switch = self.secs_since_switch();
        let qs = self.config.new_source_qs;

        let (mut undelivered_sum, mut delivered_sum) = (0.0, 0.0);
        let (mut counted, mut waiting) = (0usize, 0u64);
        for &p in &self.active {
            let record = &mut self.switch_records[p as usize];
            if !record.countable() {
                continue;
            }
            let peer = &self.peers[p as usize];
            let id_play = peer.playback.next_play();
            let q2 = peer.q2(&new, qs);
            if record.s1_finished_secs.is_none() && id_play > old_end {
                record.s1_finished_secs = Some(since_switch);
            }
            if record.s2_prepared_secs.is_none() && q2 == 0 {
                record.s2_prepared_secs = Some(since_switch);
            }
            if record.s2_started_secs.is_none() && id_play > new.first_segment {
                record.s2_started_secs = Some(since_switch);
            }
            if !record.completed() {
                waiting += 1;
            }
            let q1 = peer.undelivered_in(&old, old_end);
            undelivered_sum += if record.q0 == 0 {
                0.0
            } else {
                q1 as f64 / record.q0 as f64
            };
            delivered_sum += (qs - q2) as f64 / qs as f64;
            counted += 1;
        }
        if counted > 0 {
            self.ratio_samples.push(RatioSample {
                secs: since_switch,
                undelivered_ratio_s1: undelivered_sum / counted as f64,
                delivered_ratio_s2: delivered_sum / counted as f64,
            });
        }
        waiting
    }
}
