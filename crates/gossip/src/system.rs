//! The complete period-synchronous streaming system.
//!
//! [`StreamingSystem`] wires the overlay, the per-node protocol state, the
//! pluggable scheduler and the transfer model into the simulation loop the
//! paper's evaluation runs:
//!
//! 1. (dynamic scenarios) apply churn and repair neighbour sets,
//! 2. the live source emits `p·τ` new segments,
//! 3. every node exchanges buffer maps with its neighbours (control traffic),
//!    discovers new sessions, builds its scheduling context and asks its
//!    scheduler which segments to request,
//! 4. requests are granted against inbound/outbound budgets and the granted
//!    segments are delivered (data traffic),
//! 5. every node advances playback; switch milestones and the per-period
//!    ratio tracks are recorded.
//!
//! # Hot path
//!
//! [`advance`](StreamingSystem::advance) runs the optimized period loop: all
//! working memory lives in a reusable [`PeriodScratch`] arena (zero
//! steady-state heap allocation), candidate segments are discovered by
//! word-level bitset intersection of per-peer availability maps, per-peer
//! lookups use dense `Vec`s indexed by [`PeerId`], and a period is two
//! dispatches of one chunk plan over an attached [`JobExecutor`] (the
//! persistent `fss-runtime` worker pool in production; an in-line serial
//! fallback otherwise): the scheduling pass, which also turns each
//! requester's requests into grants, and the fused walk, which delivers
//! segments and advances playback.  Chunk outputs land in per-chunk scratch
//! slots and merge in chunk order, so the report is byte-identical
//! regardless of executor, worker count or scheduling interleaving.
//! `advance` is the only period in the library; the executable
//! specification it is checked against (a straight-line lockstep period
//! written from the public API) lives in the test-only `fss-spec` crate.

use crate::buffer::FifoBuffer;
use crate::config::GossipConfig;
use crate::directory::{sample_distinct, MembershipView, SampleScratch};
use crate::mem::MemUsage;
use crate::membership::MembershipMaintainer;
use crate::net::{NetStats, NetworkModel};
use crate::peer;
use crate::prefetch::{prefetch_lines, prefetch_read, DELIVERY_AHEAD, WALK_AHEAD};
use crate::qoe::{PeerQoe, QoeRecorder, QoeTotals};
use crate::scratch::{Outbound, PeriodScratch, WorkerScratch};
use crate::segment::{Session, SessionDirectory};
use crate::stats::{RatioSample, SwitchRecord, SwitchStats, TrafficCounters};
use crate::store::{PeerHeader, PeerRef, PeerStore, PEER_INLINE_BYTES};
use crate::transfer::grant_per_link;
use fss_core::{SegmentId, SegmentScheduler, SourceId};
use fss_overlay::net::{LinkFaults, MessageKind, NetworkConfig};
use fss_overlay::{ChurnModel, Overlay, OverlayError, PeerAttrs, PeerId};
use fss_sim::exec::{DisjointRanges, DisjointSlots, JobExecutor, SerialExecutor};
use fss_sim::SimDuration;
use std::sync::Arc;

/// Snapshot of everything an experiment needs after (or while) running the
/// system.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemReport {
    /// Name of the scheduling policy that produced this run.
    pub scheduler: &'static str,
    /// Aggregated switch statistics, folded over the per-peer switch
    /// records in peer order at report time.  The raw per-peer records stay
    /// readable through [`StreamingSystem::switch_records`]; the report
    /// itself is O(1) in the peer count.
    pub switch: SwitchStats,
    /// Per-period ratio samples recorded since the switch.
    pub ratio_samples: Vec<RatioSample>,
    /// Traffic accumulated over the whole run.
    pub traffic_total: TrafficCounters,
    /// Traffic accumulated between the switch and its completion.
    pub traffic_switch_window: TrafficCounters,
    /// Number of scheduling periods executed.
    pub periods: u64,
    /// Seconds (since the switch) at which the last countable node completed
    /// the switch, if every countable node did.
    pub switch_completed_secs: Option<f64>,
    /// Per-peer protocol-state footprint at report time (active peers only;
    /// a pure function of the protocol history, so it never breaks report
    /// equivalence across implementations, worker counts or stepping
    /// modes — see [`crate::mem`]).
    pub mem: MemUsage,
    /// Cumulative QoE event counters (startups, stall episodes, continuity)
    /// recorded on the playback path — see [`crate::qoe`].  All zero when
    /// telemetry is disabled.
    pub qoe: QoeTotals,
}

/// The period-synchronous gossip streaming simulator.
pub struct StreamingSystem {
    config: GossipConfig,
    overlay: Overlay,
    /// Sharded struct-of-arrays peer storage: dense contiguous id shards,
    /// each owning its peers' buffer/playback/discovery/credit columns.
    /// The shards are the chunk unit of both pool dispatches of a period.
    peers: PeerStore,
    directory: SessionDirectory,
    scheduler: Box<dyn SegmentScheduler>,
    churn: Option<ChurnModel>,
    membership: MembershipMaintainer,
    /// This channel's slot in the cross-channel membership directory: the
    /// incrementally maintained member view every admission path (churn
    /// rejoin, zap batches, storms) and the repair pass read instead of
    /// re-collecting `active_peers()`.
    view: MembershipView,
    /// Pooled churn working memory (eligible/left/joined/neighbour buffers).
    churn_scratch: ChurnScratch,

    sources: Vec<PeerId>,
    /// Next segment id the live source will emit.
    next_emit: SegmentId,
    emit_credit: f64,

    period_index: u64,
    traffic_total: TrafficCounters,
    traffic_switch_window: TrafficCounters,

    /// Set when the source switch is triggered.
    switch_secs: Option<f64>,
    /// The session pair involved in the switch (old, new).
    switch_sessions: Option<(SourceId, SourceId)>,
    switch_records: Vec<SwitchRecord>,
    ratio_samples: Vec<RatioSample>,
    switch_completed_secs: Option<f64>,

    /// Streaming QoE event recorder, fed by the playback pass (see
    /// [`crate::qoe`]).  Consumes no RNG and allocates nothing in steady
    /// state, so enabling it cannot change any simulated result.
    qoe: QoeRecorder,

    /// Reusable period working memory.
    scratch: PeriodScratch,
    /// Executor running the period's chunks.  `None` degrades to the
    /// in-line [`SerialExecutor`] — byte-identical results either way.
    executor: Option<Arc<dyn JobExecutor>>,
    /// The message-level network model.  `None` (the default) selects
    /// period-lockstep stepping; `Some` switches [`advance`](Self::advance)
    /// to the event-driven mode, which carries granted transfers as
    /// scheduled messages with latency, loss and jitter (see [`crate::net`]).
    net: Option<NetworkModel>,
}

impl StreamingSystem {
    /// Creates a system over `overlay` with the given scheduling policy.
    ///
    /// # Panics
    /// Panics if the configuration is invalid.
    pub fn new(
        overlay: Overlay,
        config: GossipConfig,
        scheduler: Box<dyn SegmentScheduler>,
    ) -> Self {
        config.validate().expect("valid gossip configuration");
        let capacity = overlay.graph().capacity();
        let mut peers = PeerStore::with_capacity(capacity);
        for _ in 0..capacity {
            peers.push_peer(config.buffer_capacity);
        }
        let min_degree = overlay.config().min_degree;
        let membership_seed = overlay.config().seed ^ 0x4d45_4d42;
        let view = MembershipView::from_members(overlay.active_peers());
        StreamingSystem {
            config,
            overlay,
            peers,
            directory: SessionDirectory::new(),
            scheduler,
            churn: None,
            membership: MembershipMaintainer::new(min_degree, membership_seed),
            view,
            churn_scratch: ChurnScratch::default(),
            sources: Vec::new(),
            next_emit: SegmentId(0),
            emit_credit: 0.0,
            period_index: 0,
            traffic_total: TrafficCounters::new(),
            traffic_switch_window: TrafficCounters::new(),
            switch_secs: None,
            switch_sessions: None,
            switch_records: vec![SwitchRecord::default(); capacity],
            ratio_samples: Vec::new(),
            switch_completed_secs: None,
            qoe: QoeRecorder::with_capacity(capacity),
            scratch: PeriodScratch::default(),
            executor: None,
            net: None,
        }
    }

    /// Enables per-period churn (the paper's dynamic environments).
    pub fn set_churn(&mut self, churn: ChurnModel) {
        self.churn = Some(churn);
    }

    /// Installs a message-level network model and switches
    /// [`advance`](Self::advance) to the event-driven stepping mode.
    ///
    /// The arrival calendar gets one bucket per period of the latency
    /// horizon, each pre-reserved for one period's grant volume, so event
    /// stepping allocates nothing once warm.  Installing the
    /// [`NetworkConfig::ideal`] model reproduces period-lockstep results
    /// byte-for-byte (pinned by the golden-digest suite).
    ///
    /// # Panics
    /// Panics if the configuration is invalid or `τ` rounds below 1 ms.
    pub fn set_network(&mut self, config: NetworkConfig) {
        let tau_ms = (self.config.tau_secs * 1_000.0).round() as u64;
        // A requester is granted at most B segments a period (the grant
        // reservation's cap), so a huge validated τ reserves no more.
        let per_period = ((self.config.play_rate * self.config.tau_secs).ceil() as usize + 1)
            .min(self.config.buffer_capacity);
        // Horizon: how many periods a message can stay in flight under the
        // slowest link (request + data leg = 2 one-way = 4 access delays),
        // clamped against pathological latency models; later arrivals wait
        // in the calendar's overflow list.
        let slowest_ms = config.latency_scale * 4.0 * self.overlay.latency().max_access_ms()
            + config.jitter_ms as f64;
        let horizon = if slowest_ms.is_finite() && tau_ms > 0 {
            (slowest_ms / tau_ms as f64).ceil().min(64.0) as usize + 2
        } else {
            2
        };
        let hint = self.overlay.active_count() * per_period;
        self.net = Some(NetworkModel::new(config, tau_ms, horizon, hint));
    }

    /// The installed network model, if event-driven stepping is active.
    pub fn network(&self) -> Option<&NetworkModel> {
        self.net.as_ref()
    }

    /// The network model's cumulative counters ([`NetStats::default`] when
    /// no model is installed — period mode neither drops nor delays).
    pub fn network_stats(&self) -> NetStats {
        self.net.as_ref().map(|n| n.stats()).unwrap_or_default()
    }

    /// Re-partitions the peer store into (at least) `shards` shards.  The
    /// shards are the chunk unit of the period, so the worker pool steps
    /// shards independently; a single-shard store runs the period as one
    /// chunk.  Results are byte-identical across shard counts: chunk
    /// outputs concatenate in peer order either way.
    pub fn set_shards(&mut self, shards: usize) {
        self.peers.set_shards(shards);
    }

    /// Number of shards currently backing the peer store.
    pub fn shard_count(&self) -> usize {
        self.peers.shard_count()
    }

    /// The peer store itself (sharded struct-of-arrays columns).
    pub fn peer_store(&self) -> &PeerStore {
        &self.peers
    }

    /// Attaches the executor that runs the period's chunks — in
    /// production the persistent `fss-runtime::WorkerPool`, which amortises
    /// thread spawn cost to zero per period.
    ///
    /// Without an executor the chunks run in-line; because every chunk
    /// writes only its own scratch slot and slots merge in chunk order,
    /// reports are byte-identical in all configurations.
    pub fn set_executor(&mut self, executor: Arc<dyn JobExecutor>) {
        self.executor = Some(executor);
    }

    /// The protocol configuration.
    pub fn config(&self) -> &GossipConfig {
        &self.config
    }

    /// The overlay being streamed over.
    pub fn overlay(&self) -> &Overlay {
        &self.overlay
    }

    /// The session directory.
    pub fn directory(&self) -> &SessionDirectory {
        &self.directory
    }

    /// This channel's membership view — the directory slot other layers
    /// (zap resolution, experiments) read members from.
    pub fn membership_view(&self) -> &MembershipView {
        &self.view
    }

    /// Current simulation time in seconds.
    pub fn now_secs(&self) -> f64 {
        self.period_index as f64 * self.config.tau_secs
    }

    /// Seconds elapsed since the source switch (0 before the switch).
    pub fn secs_since_switch(&self) -> f64 {
        match self.switch_secs {
            Some(t) => self.now_secs() - t,
            None => 0.0,
        }
    }

    /// The live source's emission cursor: the next segment id it emits and
    /// the fractional emission credit carried into the next period.
    pub fn emission(&self) -> (SegmentId, f64) {
        (self.next_emit, self.emit_credit)
    }

    /// Number of scheduling periods executed so far.
    pub fn periods(&self) -> u64 {
        self.period_index
    }

    /// Traffic accumulated over the whole run so far (the `traffic_total`
    /// of [`report`](Self::report), without building the report).
    pub fn traffic_total(&self) -> TrafficCounters {
        self.traffic_total
    }

    /// Read access to one peer (panics on unknown ids).
    pub fn peer(&self, id: PeerId) -> PeerRef<'_> {
        self.peers.peer(id)
    }

    /// The raw per-peer switch records (indexed by [`PeerId`]).  Reports
    /// carry only their [`SwitchStats`] aggregate; tests and diagnostics
    /// that need per-peer milestones read them here.
    pub fn switch_records(&self) -> &[SwitchRecord] {
        &self.switch_records
    }

    /// The streaming QoE recorder: the latest per-period event row and the
    /// per-period startup/stall event buffers higher layers fold into
    /// bounded timelines (see [`crate::qoe`]).
    pub fn qoe(&self) -> &QoeRecorder {
        &self.qoe
    }

    /// Turns QoE event recording on or off (on by default).  The event path
    /// consumes no RNG and allocates nothing in steady state, so this knob
    /// can never change a simulated result — it exists for the
    /// `qoe_overhead` benchmark lane and for callers that want the last few
    /// percent of period throughput.
    pub fn set_qoe_enabled(&mut self, on: bool) {
        self.qoe.set_enabled(on);
    }

    /// Starts the first source.  Must be called exactly once before running.
    pub fn start_initial_source(&mut self, source: PeerId) -> SourceId {
        assert!(
            self.directory.is_empty(),
            "initial source already started; use switch_source for later sources"
        );
        assert!(
            self.overlay.graph().is_active(source),
            "source must be active"
        );
        let id = self.directory.start_session(source, self.now_secs(), None);
        let bw = self.overlay.config().bandwidth.source_peer();
        self.overlay
            .set_bandwidth(source, bw)
            .expect("source exists");
        self.sources.push(source);
        self.next_emit = SegmentId(0);
        self.peers
            .peer_mut(source)
            .discover_sessions(&self.directory, SegmentId(0));
        id
    }

    /// Stops the live source and hands the stream over to `new_source`
    /// (the paper's source switch, time "0" of the evaluation).
    ///
    /// Returns the new session id.
    pub fn switch_source(&mut self, new_source: PeerId) -> SourceId {
        let live = self
            .directory
            .live()
            .expect("a live session is required to switch from");
        let old_id = live.id;
        let old_source = live.source_peer;
        assert!(
            self.overlay.graph().is_active(new_source),
            "new source must be active"
        );
        assert_ne!(
            new_source, old_source,
            "new source must differ from the old one"
        );

        let last_emitted = SegmentId(self.next_emit.value().saturating_sub(1));
        let new_id = self
            .directory
            .start_session(new_source, self.now_secs(), Some(last_emitted));

        // Bandwidth roles: the new source stops downloading and gets the
        // large source outbound; the old source goes back to being a regular
        // peer so it can fetch the new stream.
        let src_bw = self.overlay.config().bandwidth.source_peer();
        self.overlay
            .set_bandwidth(new_source, src_bw)
            .expect("new source exists");
        // The old source keeps its large outbound: it remains the primary
        // holder of the old stream's tail, which other nodes still need.  Its
        // inbound becomes that of a regular peer so it can fetch the new
        // stream itself.
        let regular = self.overlay.config().bandwidth;
        let old_bw = fss_overlay::PeerBandwidth {
            inbound: regular.mean_rate,
            outbound: regular.source_outbound,
        };
        self.overlay
            .set_bandwidth(old_source, old_bw)
            .expect("old source exists");
        self.sources.push(new_source);

        // The new source knows its own session immediately.
        let first_segment = self.directory.sessions()[new_id.0 as usize].first_segment;
        self.peers
            .peer_mut(new_source)
            .discover_sessions(&self.directory, first_segment);

        // Record switch-time state.  A fresh record per peer, so serial
        // switches (speaker after speaker) each get their own milestones.
        self.switch_secs = Some(self.now_secs());
        self.switch_sessions = Some((old_id, new_id));
        self.switch_completed_secs = None;
        self.traffic_switch_window = TrafficCounters::new();
        self.ratio_samples.clear();
        let old_session = *self.directory.get(old_id).expect("old session exists");
        for record in self.switch_records.iter_mut() {
            *record = SwitchRecord::default();
        }
        for peer_id in self.overlay.active_peers().collect::<Vec<_>>() {
            let record = &mut self.switch_records[peer_id as usize];
            record.present_at_switch = true;
            record.q0 = self
                .peers
                .peer(peer_id)
                .undelivered_in_session(&old_session, last_emitted);
        }
        // Sources are not "switching" nodes: exclude them from the averages.
        self.switch_records[new_source as usize].present_at_switch = false;
        new_id
    }

    /// Removes a batch of peers and repairs the membership once — an
    /// externally driven departure, e.g. the viewers of a *zap batch*
    /// leaving this channel for another one at the same period boundary.
    ///
    /// Each peer's slot stays (ids are never reused) but its buffer storage
    /// is released: nothing reads a departed peer's buffer again.  Its
    /// switch record is marked departed so it stops counting towards switch
    /// metrics.  Batching the repair is what keeps a multi-viewer zap batch
    /// a single pairwise synchronisation point between two channels.  An
    /// empty batch is a no-op (no repair pass, no RNG consumption).
    ///
    /// The whole batch is validated before the first departure: an `Err`
    /// (a peer that is not active, or one listed twice) leaves the system
    /// unchanged.
    ///
    /// # Panics
    /// Panics, before any state changes, if any peer has ever been a source:
    /// departing the emitter would silently stall the whole stream, and old
    /// sources remain the primary holders of their stream's tail — the same
    /// protection the churn path enforces.
    pub fn depart_batch(&mut self, peers: &[PeerId]) -> Result<(), OverlayError> {
        if peers.is_empty() {
            return Ok(());
        }
        for (i, &peer) in peers.iter().enumerate() {
            assert!(
                !self.sources.contains(&peer),
                "sources cannot depart (peer {peer})"
            );
            if !self.overlay.graph().is_active(peer) || peers[..i].contains(&peer) {
                return Err(OverlayError::UnknownPeer { peer });
            }
        }
        for &peer in peers {
            self.overlay.remove_peer(peer).expect("validated departure");
            self.view.on_depart(peer);
            self.release_departed(peer);
        }
        self.repair_membership();
        Ok(())
    }

    /// Admits a batch of peers and repairs the membership once — an
    /// externally driven arrival, e.g. the viewers of a zap batch.
    ///
    /// Arrival `i` gets `attrs[i]`, attaches to
    /// `neighbours[i * degree..(i + 1) * degree]` and, like a churn joiner,
    /// starts playback by following its neighbours' current steps.  Its id
    /// is appended to `ids_out` (cleared first).  Arrivals may neighbour an
    /// earlier arrival of the same batch: ids are dense, so arrival `j`
    /// takes id `overlay().graph().capacity() + j`.  The buffers are flat
    /// and pooled, so admission allocates nothing but the newcomers' own
    /// state.  An empty batch is a no-op.
    ///
    /// The whole batch is validated before the first arrival is added: an
    /// `Err` (a neighbour that is neither active nor an earlier arrival)
    /// leaves the system unchanged.
    ///
    /// # Panics
    /// Panics if `neighbours.len() != attrs.len() * degree`.
    pub fn admit_batch(
        &mut self,
        attrs: &[PeerAttrs],
        neighbours: &[PeerId],
        degree: usize,
        ids_out: &mut Vec<PeerId>,
    ) -> Result<(), OverlayError> {
        assert_eq!(
            neighbours.len(),
            attrs.len() * degree,
            "flat neighbour buffer must hold `degree` entries per arrival"
        );
        ids_out.clear();
        if attrs.is_empty() {
            return Ok(());
        }
        let first = self.overlay.graph().capacity() as PeerId;
        let group = |i: usize| &neighbours[i * degree..(i + 1) * degree];
        for i in 0..attrs.len() {
            let earlier = first..first + i as PeerId;
            let unknown = group(i)
                .iter()
                .find(|&&n| !self.overlay.graph().is_active(n) && !earlier.contains(&n));
            if let Some(&peer) = unknown {
                return Err(OverlayError::UnknownPeer { peer });
            }
        }
        for (i, &peer_attrs) in attrs.iter().enumerate() {
            let id = join_overlay(&mut self.overlay, &mut self.view, peer_attrs, group(i));
            ids_out.push(id);
        }
        self.settle_joiners(ids_out);
        Ok(())
    }

    /// The tail of the join rule shared by churn joiners and admitted
    /// batches, once the overlay holds every joiner: allocate all their
    /// protocol state, then point each joiner's playback at its neighbours'
    /// current steps (joiners may neighbour each other, so no join point is
    /// computed before every joiner is registered), then repair the
    /// membership once.
    fn settle_joiners(&mut self, joined: &[PeerId]) {
        for &id in joined {
            debug_assert_eq!(id as usize, self.peers.len());
            self.peers.push_peer(self.config.buffer_capacity);
            self.switch_records.push(SwitchRecord::default());
            self.qoe.register_peer(self.period_index);
        }
        for &id in joined {
            let join_point = self
                .overlay
                .neighbors(id)
                .iter()
                .map(|&n| self.peers.peer(n).id_play())
                .max()
                .unwrap_or(SegmentId(0));
            self.peers.peer_mut(id).rejoin_at(join_point);
        }
        self.repair_membership();
    }

    /// Repairs neighbour sets after membership changes.
    fn repair_membership(&mut self) {
        self.membership
            .repair(&mut self.overlay, self.view.members())
            .expect("membership repair over valid overlay");
    }

    /// Runs `n` scheduling periods through whichever stepping mode is
    /// installed (see [`advance`](Self::advance)).
    pub fn run_periods(&mut self, n: u64) {
        for _ in 0..n {
            self.advance();
        }
    }

    /// Runs until every countable node has completed the switch or
    /// `max_periods` have elapsed since the call.  Returns the number of
    /// periods executed.
    pub fn run_until_switched(&mut self, max_periods: u64) -> u64 {
        let mut executed = 0;
        while executed < max_periods && self.switch_completed_secs.is_none() {
            self.advance();
            executed += 1;
        }
        executed
    }

    /// Executes one scheduling period: two dispatches of one chunk plan over
    /// the executor.  The single period every runner (period loops, the
    /// session manager, experiments, the benchmark) goes through.
    ///
    /// 1. The **scheduling pass**: per chunk, gather, discovery, context
    ///    building, scheduling and the grant step: a per-link grant depends
    ///    only on the requester's own requests and the read-only supplier
    ///    budgets, so each chunk grants its own requesters (see
    ///    [`grant_per_link`]).
    /// 2. The **fused walk**: per chunk, delivery, discovery write,
    ///    playback advance, QoE observation and switch milestones back to
    ///    back, while the chunk's header and buffer columns are
    ///    cache-resident.
    ///
    /// What the walk delivers depends on the installed network model (see
    /// [`set_network`](Self::set_network)).  In lockstep and under the ideal
    /// network it is this period's grants.  Under a faulty network the
    /// grants become in-flight messages, and the walk delivers the messages
    /// that land strictly inside this period.
    ///
    /// Reports are byte-identical for every executor, worker count and
    /// shard count, and the ideal network reproduces lockstep
    /// byte-for-byte.
    pub fn advance(&mut self) {
        let period_traffic_before = self.traffic_total;

        // 0. Event mode: stragglers due exactly at this boundary are visible
        //    to this period's buffer-map exchange and scheduling.
        if self.net.is_some() {
            self.land_boundary_arrivals();
        }

        // 1. Churn and membership repair.
        self.apply_churn();

        // 2. Source emission.
        self.emit_segments();

        // 3-4. Buffer-map exchange, discovery, scheduling and grants.  The
        //      scheduling chunks compute post-discovery knowledge locally;
        //      the store write lands in the walk below.
        self.schedule_and_grant();

        // Event mode: the grants go on the wire, and each chunk's delivery
        // slice becomes what lands before the next boundary.
        if self.net.is_some() {
            self.exchange_deliveries();
        }

        // 5. Fused walk: delivery, discovery write, playback, QoE and
        //    milestones per chunk.
        self.period_index += 1;
        let (counted, waiting) = self.apply_and_play_fused();

        // 6. Switch-window traffic accounting.  The switch completes in the
        //    first period whose walk finds every countable peer done; that
        //    period's traffic still belongs to the window.
        self.account_switch_window(period_traffic_before);
        if counted > 0 && waiting == 0 && self.switch_completed_secs.is_none() {
            self.switch_completed_secs = Some(self.secs_since_switch());
        }
    }

    /// Event mode: applies the in-flight messages due exactly at the current
    /// boundary to their requesters' buffers, in send order, before this
    /// period's scheduling reads them.  Arrivals for peers that have since
    /// left the overlay are dropped and counted; duplicate arrivals are
    /// idempotent ([`FifoBuffer::insert`]).  Data bits are accounted at
    /// arrival.
    fn land_boundary_arrivals(&mut self) {
        let net = self
            .net
            .as_mut()
            .expect("event-driven stepping requires set_network()");
        let arrivals = net.calendar.drain(self.period_index, true);
        let mut delivered = 0;
        for msg in arrivals {
            if self.overlay.graph().is_active(msg.requester) {
                self.peers.buffer_mut(msg.requester).insert(msg.segment);
                delivered += 1;
            }
        }
        // Stale arrivals — the receiver zapped away or churned out
        // mid-flight — still spent their bits on the wire.
        let landed = arrivals.len() as u64;
        self.traffic_total
            .add_data(landed * self.config.segment_bits);
        net.stats.data_delivered += delivered;
        net.stats.data_stale += landed - delivered;
    }

    /// Event mode, between the two dispatches: hands this period's grants
    /// to the network and refills each chunk's delivery slice with the
    /// messages that land strictly inside the period.
    ///
    /// Each grant's arrival is scheduled (request leg + data leg of scaled
    /// trace latency, plus jitter) unless the data leg drops it.  Grants go
    /// out chunk by chunk, so requester by requester, each requester's in
    /// grant order.  Loss semantics per leg:
    /// * a lost buffer-map advertisement blinds the requester to that
    ///   supplier for the whole period (all its requests there are
    ///   suppressed before granting),
    /// * a lost request never reaches the supplier, so it does not charge
    ///   the supplier's outbound budget (later requests may take the slot),
    /// * a lost data message *does* consume the budget the grant step
    ///   charged it — upstream bandwidth spent on a transfer that never
    ///   lands.
    ///
    /// The first two are stateless per-link draws made in the scheduling
    /// chunks (their counts merge here); the data leg is drawn here.  The
    /// calendar hands the period's arrivals back in (arrival time, send
    /// order) order.  One pass over them counts the arrivals for departed
    /// requesters as stale and regroups the rest stably by their
    /// requester's chunk, so every buffer sees the insert sequence a global
    /// serial drain gave it.  Under the ideal network every grant lands at
    /// this same boundary in grant order, so the grants stay in place as
    /// the delivery slice.
    fn exchange_deliveries(&mut self) {
        let period = self.period_index;
        let net = self
            .net
            .as_mut()
            .expect("event-driven stepping requires set_network()");
        let PeriodScratch {
            active,
            chunks,
            workers,
            ..
        } = &mut self.scratch;
        let workers = &mut workers[..chunks.len()];
        let mut sent = 0;
        for worker in workers.iter() {
            net.stats.requests_blinded += worker.requests_blinded;
            net.stats.requests_lost += worker.requests_lost;
            sent += worker.grants.len() as u64;
        }
        net.stats.data_sent += sent;
        if net.config.is_ideal() {
            // Every requester scheduled this period is active.
            net.stats.data_delivered += sent;
            return;
        }

        let now = net.boundary(period);
        let latency = self.overlay.latency();
        for worker in workers.iter_mut() {
            for d in worker.grants.drain(..) {
                if net.config.loss_rate > 0.0
                    && net.faults.lost(
                        d.supplier,
                        d.requester,
                        MessageKind::Data,
                        period,
                        d.segment.value(),
                    )
                {
                    net.stats.data_lost += 1;
                    continue;
                }
                let rtt_ms =
                    net.config.latency_scale * latency.round_trip_ms(d.requester, d.supplier);
                let jitter = net.faults.jitter_ms(
                    d.supplier,
                    d.requester,
                    MessageKind::Data,
                    period,
                    d.segment.value(),
                );
                let arrival = now.saturating_add(SimDuration::from_millis(
                    rtt_ms.round().max(0.0) as u64 + jitter,
                ));
                net.calendar.push(arrival, d);
                net.stats.max_in_flight = net.stats.max_in_flight.max(net.calendar.len() as u64);
            }
        }

        let arrivals = net.calendar.drain(period + 1, false);
        let mut stale = 0;
        for &d in arrivals {
            if self.overlay.graph().is_active(d.requester) {
                workers[chunk_of(chunks, active, d.requester)]
                    .grants
                    .push(d);
            } else {
                stale += 1;
            }
        }
        net.stats.data_delivered += arrivals.len() as u64 - stale;
        net.stats.data_stale += stale;
        // The walk accounts the delivered bits; stale arrivals — the
        // receiver zapped away or churned out mid-flight — still spent
        // theirs on the wire.
        self.traffic_total
            .add_data(stale * self.config.segment_bits);
    }

    /// Builds the run report.  The per-peer switch records fold into their
    /// [`SwitchStats`] aggregate here — one serial pass in peer order, so
    /// the report is identical across implementations and worker counts and
    /// its size is independent of the peer count.
    pub fn report(&self) -> SystemReport {
        SystemReport {
            scheduler: self.scheduler.name(),
            switch: SwitchStats::from_records(&self.switch_records),
            ratio_samples: self.ratio_samples.clone(),
            traffic_total: self.traffic_total,
            traffic_switch_window: self.traffic_switch_window,
            periods: self.period_index,
            switch_completed_secs: self.switch_completed_secs,
            mem: self.memory_usage(),
            qoe: self.qoe.totals(),
        }
    }

    /// The per-peer protocol-state footprint meter: bytes reserved by the
    /// **active** peers' state (ring / window / sequence array plus the
    /// inline node), aggregated into a [`MemUsage`].
    ///
    /// Deterministic across implementations and execution strategies (it
    /// reads protocol state only — never the scratch arena, whose size
    /// follows the chunk plan), so it is safe to surface in
    /// [`SystemReport`].
    pub fn memory_usage(&self) -> MemUsage {
        let mut usage = MemUsage {
            peer_slots: self.peers.len(),
            ..MemUsage::default()
        };
        // Shard-major sweep: resolve each shard's buffer column once and
        // index slots directly (the active list is ascending, so each shard
        // is one contiguous run), prefetching the next buffer struct ahead
        // of its `mem_breakdown` reads.  Sums in active order, so the
        // metered totals are byte-identical to the per-id walk.
        let shift = self.peers.shard_shift();
        let mask = self.peers.shard_size() - 1;
        let shards = self.peers.shards();
        // fss-lint: hot-path
        let mut shard_idx = usize::MAX;
        let mut buffers: &[FifoBuffer] = &[];
        for p in self.overlay.active_peers() {
            let shard = (p as usize) >> shift;
            if shard != shard_idx {
                shard_idx = shard;
                buffers = shards[shard].buffers();
            }
            let slot = (p as usize) & mask;
            if let Some(ahead) = buffers.get(slot + WALK_AHEAD) {
                prefetch_read(ahead);
            }
            usage.add_peer(PEER_INLINE_BYTES, buffers[slot].mem_breakdown());
        }
        // fss-lint: end
        usage
    }

    // ------------------------------------------------------------------
    // internal steps
    // ------------------------------------------------------------------

    fn account_switch_window(&mut self, period_traffic_before: TrafficCounters) {
        if self.switch_secs.is_some() && self.switch_completed_secs.is_none() {
            let delta = TrafficCounters {
                control_bits: self.traffic_total.control_bits - period_traffic_before.control_bits,
                data_bits: self.traffic_total.data_bits - period_traffic_before.data_bits,
            };
            self.traffic_switch_window.merge(&delta);
        }
    }

    /// Per-period churn, routed through the membership directory: the
    /// departure shuffle reads the view's member list, every joiner's
    /// neighbour set is sampled from the view's member list (the same
    /// sampler zap batches use), the view is kept in sync event by event so
    /// later joiners can attach to earlier ones, and the joiners settle
    /// through the tail [`admit_batch`](Self::admit_batch) shares.
    ///
    /// RNG-compatible with `ChurnModel`'s test-only reference `step`: the view's
    /// ascending-id member order is exactly the `active_peers()` collection
    /// order the legacy path sampled from (asserted by the churn and
    /// golden-report test-suites).
    fn apply_churn(&mut self) {
        {
            let Some(churn) = self.churn.as_mut() else {
                return;
            };
            let scratch = &mut self.churn_scratch;
            let view = &mut self.view;
            let overlay = &mut self.overlay;
            debug_assert_eq!(view.len(), overlay.active_count());

            let population = view.len();
            churn
                .step_departures(
                    overlay,
                    view.members(),
                    &self.sources,
                    &mut scratch.eligible,
                    &mut scratch.left,
                )
                .expect("churn departures over valid overlay");
            for &left in &scratch.left {
                view.on_depart(left);
            }

            scratch.joined.clear();
            let join_count = churn.join_count(population);
            for _ in 0..join_count {
                if view.is_empty() {
                    break;
                }
                scratch.neighbours.clear();
                let degree = churn.join_degree.min(view.len());
                let neighbours = &mut scratch.neighbours;
                let sampler = &mut scratch.sampler;
                let attrs = churn.draw_arrival(|rng| {
                    sample_distinct(view.members(), rng, degree, sampler, neighbours)
                });
                scratch
                    .joined
                    .push(join_overlay(overlay, view, attrs, neighbours));
            }
        }

        for i in 0..self.churn_scratch.left.len() {
            let left = self.churn_scratch.left[i];
            self.release_departed(left);
        }
        // Moved out and back (no allocation): the shared tail takes
        // `&mut self`, which cannot overlap a borrow of the scratch.
        let joined = std::mem::take(&mut self.churn_scratch.joined);
        self.settle_joiners(&joined);
        self.churn_scratch.joined = joined;
    }

    /// Marks a departed peer's switch record and releases its buffer
    /// storage.  Gathers read only active neighbours, arrivals for inactive
    /// requesters are counted as stale and the memory meter walks active
    /// peers, so no report can observe the released buffer.
    fn release_departed(&mut self, peer: PeerId) {
        if let Some(record) = self.switch_records.get_mut(peer as usize) {
            record.departed = true;
        }
        *self.peers.buffer_mut(peer) = FifoBuffer::default();
    }

    fn emit_segments(&mut self) {
        let Some(live) = self.directory.live().copied() else {
            return;
        };
        self.emit_credit += self.config.play_rate * self.config.tau_secs;
        let count = self.emit_credit.floor() as u64;
        self.emit_credit -= count as f64;
        let buffer = self.peers.buffer_mut(live.source_peer);
        for _ in 0..count {
            buffer.insert(self.next_emit);
            self.next_emit = self.next_emit.next();
        }
    }

    // ------------------------------------------------------------------
    // period internals
    // ------------------------------------------------------------------

    /// Buffer-map gather + discovery + context building + scheduling +
    /// grants, entirely out of the scratch arena: leaves each chunk's
    /// grants in its [`WorkerScratch`] slot, requester-ascending.
    ///
    /// The discovery gather is fused into the scheduling chunks: each chunk
    /// walks its peers' neighbour buffers **once**, records the max observed
    /// id in `observed_max` (chunk ranges partition the active list, so the
    /// parallel writes are disjoint) and builds each scheduling context from
    /// the locally computed post-discovery knowledge.  Discovery writes only
    /// touch the per-peer header — never a buffer — so every gather still
    /// reads pre-discovery state, as a serial discovery pass before
    /// scheduling would.
    /// The store write is deferred to the walk, where the header line is
    /// hot anyway; discovery commutes with delivery (headers vs buffers),
    /// so the deferral is byte-identical.
    fn schedule_and_grant(&mut self) {
        self.scratch.active.clear();
        {
            let overlay = &self.overlay;
            self.scratch.active.extend(overlay.active_peers());
        }
        let active_len = self.scratch.active.len();

        // Chunk plan: the shard-local runs of the active list, one scratch
        // slot per chunk.
        self.plan_chunks();
        let chunk_count = self.scratch.chunks.len();
        self.scratch
            .ensure_capacity(self.overlay.graph().capacity(), chunk_count);

        self.scratch.observed_max.clear();
        self.scratch.observed_max.resize(active_len, SegmentId(0));

        // Dense per-peer rate and budget tables, refreshed once per period.
        // Only active peers get an outbound budget: a departed supplier
        // grants nothing.
        let tau = self.config.tau_secs;
        self.scratch.outbound.fill(Outbound::default());
        for i in 0..active_len {
            let p = self.scratch.active[i] as usize;
            let (inbound, outbound) = self
                .overlay
                .attrs(p as PeerId)
                .map(|a| (a.bandwidth.inbound, a.bandwidth.outbound))
                .unwrap_or((0.0, 0.0));
            self.scratch.inbound_rate[p] = inbound;
            self.scratch.outbound[p] = Outbound {
                rate: outbound,
                budget: (outbound * tau).floor() as usize,
            };
        }

        // Scheduling pass (read-only over peers/overlay/directory; writes
        // only chunk-owned scratch ranges).
        self.run_scheduling_pass();

        let control_bits = self.scratch.workers[..chunk_count]
            .iter()
            .map(|w| w.control_bits)
            .sum();
        self.traffic_total.add_control(control_bits);
    }

    /// Fills `scratch.chunks` with the `(start, end)` index ranges of the
    /// active list both dispatches of the period fan out over.
    ///
    /// The shard-boundary runs are the chunk unit: the active list is
    /// ascending, so each shard's active peers form one contiguous run,
    /// found by binary search on the shard's id bound.  A run is then
    /// **cost-balanced**: any run longer than twice the mean run length is
    /// split into equal contiguous pieces under that cap, so one densely
    /// populated shard (a skewed zap landing, say) cannot serialise the
    /// whole parallel pass behind a single oversized chunk.  The split is a
    /// pure function of the active list and the shard geometry —
    /// deterministic and order-preserving, so merged outputs are unchanged.
    /// A single-shard store plans one chunk.  Always produces at least one
    /// (possibly empty) chunk.
    fn plan_chunks(&mut self) {
        let PeriodScratch { chunks, active, .. } = &mut self.scratch;
        chunks.clear();
        let shift = self.peers.shard_shift();
        let mut runs = 0usize;
        let mut start = 0usize;
        while start < active.len() {
            let shard = (active[start] as usize) >> shift;
            let bound = ((shard as u64) + 1) << shift;
            start += active[start..].partition_point(|&p| (p as u64) < bound);
            runs += 1;
        }
        let cap = (2 * active.len())
            .checked_div(runs)
            .unwrap_or(active.len())
            .max(1);
        let mut start = 0usize;
        while start < active.len() {
            let shard = (active[start] as usize) >> shift;
            let bound = ((shard as u64) + 1) << shift;
            let end = start + active[start..].partition_point(|&p| (p as u64) < bound);
            let len = end - start;
            let pieces = len.div_ceil(cap);
            for k in 0..pieces {
                chunks.push((start + k * len / pieces, start + (k + 1) * len / pieces));
            }
            start = end;
        }
        if chunks.is_empty() {
            chunks.push((0, 0));
        }
    }

    /// Dispatches the per-node scheduling and granting over
    /// the planned chunks.  Chunks are contiguous slices of the active
    /// list, so concatenating chunk outputs reproduces the sequential node
    /// order exactly; each chunk writes only its own [`WorkerScratch`] slot,
    /// so any [`JobExecutor`] (the persistent pool, or the in-line serial
    /// fallback) yields identical results.
    fn run_scheduling_pass(&mut self) {
        let PeriodScratch {
            active,
            observed_max,
            chunks,
            workers: worker_slots,
            outbound,
            inbound_rate,
            ..
        } = &mut self.scratch;
        // Buffer-map and request-leg loss of a lossy event-mode network are
        // stateless per-link draws, so the chunks make them.
        let faults = self
            .net
            .as_ref()
            .filter(|net| net.config.loss_rate > 0.0)
            .map(|net| &net.faults);
        let inputs = ChunkInputs {
            store: &self.peers,
            overlay: &self.overlay,
            directory: &self.directory,
            config: &self.config,
            scheduler: &*self.scheduler,
            outbound,
            inbound_rate,
            faults,
            period: self.period_index,
        };

        let used = chunks.len();
        if used <= 1 {
            let (start, end) = chunks.first().copied().unwrap_or((0, 0));
            schedule_chunk(
                &active[start..end],
                &mut observed_max[start..end],
                &mut worker_slots[0],
                &inputs,
            );
            return;
        }

        let active = &active[..];
        let chunks = &chunks[..];
        let inputs = &inputs;
        let slots = DisjointSlots::new(&mut worker_slots[..used]);
        let observed = DisjointRanges::new(&mut observed_max[..]);
        let job = move |chunk: usize| {
            let (start, end) = chunks[chunk];
            // SAFETY: chunk indices are unique per execute() run, so each
            // scratch slot is borrowed by exactly one chunk; the chunk plan
            // partitions the active list, so the observed ranges are
            // disjoint.
            let worker = unsafe { slots.slot(chunk) };
            let observed_out = unsafe { observed.range(start, end) };
            schedule_chunk(&active[start..end], observed_out, worker, inputs);
        };
        self.executor
            .as_deref()
            .unwrap_or(&SerialExecutor)
            .execute(used, &job);
    }

    /// The fused back half of [`advance`](Self::advance), dispatched over
    /// the same chunk plan as the scheduling pass: per chunk, delivery,
    /// discovery write, playback advance, QoE observation and switch
    /// milestones run back to back while the chunk's header and buffer
    /// columns are cache-resident.
    ///
    /// Byte-identical to a serial ascending sweep because
    /// * a chunk's delivery slice (its grants, or in faulty event mode its
    ///   regrouped arrivals) goes only to its own peers, each peer's in
    ///   the order a serial delivery gave it, so each buffer's insert
    ///   sequence is unchanged,
    /// * playback, discovery and milestones read only the peer's own
    ///   columns plus period-start scratch (`observed_max`), never another
    ///   peer's state,
    /// * QoE rows, data bits and the `waiting` gauge are integers merged in
    ///   chunk order (event buffers concatenate in ascending peer order),
    ///   and
    /// * the f64 ratio-track terms land in a column aligned with `active`
    ///   and are summed serially in ascending order; peers that do not
    ///   count contribute `+0.0`, which leaves a non-negative sum
    ///   bit-for-bit unchanged.
    ///
    /// Returns `(counted, waiting)`: the countable peers the walk met and
    /// those of them that have not completed the switch (both 0 outside a
    /// switch).  These cover every countable record, because a departure
    /// marks its record departed and a peer joining after the switch was
    /// not present at it.
    fn apply_and_play_fused(&mut self) -> (usize, u64) {
        let qoe_on = self.qoe.is_enabled();
        if qoe_on {
            self.qoe.begin_period(self.period_index);
        }
        let since_switch = if self.switch_sessions.is_some() {
            self.secs_since_switch()
        } else {
            0.0
        };
        let switch = self.switch_sessions.map(|(old_id, new_id)| {
            let old = *self.directory.get(old_id).expect("old session");
            let new = *self.directory.get(new_id).expect("new session");
            let old_end = old.last_segment.expect("old session closed at switch");
            (old, new, old_end)
        });
        let active_len = self.scratch.active.len();
        if switch.is_some() {
            self.scratch.ratio_terms.resize(active_len, (0.0, 0.0));
        }
        let inputs = WalkInputs {
            config: &self.config,
            directory: &self.directory,
            switch,
            since_switch,
            qoe_on,
            period: self.period_index,
        };

        {
            let PeriodScratch {
                active,
                observed_max,
                chunks,
                workers,
                ratio_terms,
                ..
            } = &mut self.scratch;
            let active = &active[..];
            let observed_max = &observed_max[..];
            let chunks = &chunks[..];
            let used = chunks.len();
            let columns = self.peers.lend_columns();
            let qoe_states = DisjointRanges::new(self.qoe.peer_states_mut());
            let records = DisjointRanges::new(&mut self.switch_records[..]);
            let ratios = DisjointRanges::new(&mut ratio_terms[..]);
            let slots = DisjointSlots::new(&mut workers[..used]);
            let inputs = &inputs;
            let job = |chunk: usize| {
                let (start, end) = chunks[chunk];
                // SAFETY: chunk indices are unique per execute() run, so
                // each slot is borrowed by exactly one chunk.
                let worker = unsafe { slots.slot(chunk) };
                worker.waiting = 0;
                worker.counted = 0;
                worker.qoe.begin(inputs.period);
                let ids = &active[start..end];
                let (Some(&first), Some(&last)) = (ids.first(), ids.last()) else {
                    return;
                };
                let (lo, hi) = (first as usize, last as usize + 1);
                // SAFETY: the chunk plan partitions the ascending active
                // list, so the chunks' id runs `first..=last` and index
                // ranges `start..end` are pairwise disjoint.
                let (buffers, headers) = unsafe { columns.run(first, last) };
                let lanes = ChunkLanes {
                    qoe: inputs.qoe_on.then(|| unsafe { qoe_states.range(lo, hi) }),
                    records: unsafe { records.range(lo, hi) },
                    ratios: if inputs.switch.is_some() {
                        unsafe { ratios.range(start, end) }
                    } else {
                        &mut []
                    },
                };
                walk_chunk(
                    ids,
                    &observed_max[start..end],
                    buffers,
                    headers,
                    lanes,
                    worker,
                    inputs,
                );
            };
            if used <= 1 {
                job(0);
            } else {
                self.executor
                    .as_deref()
                    .unwrap_or(&SerialExecutor)
                    .execute(used, &job);
            }
        }

        let chunk_slots = &self.scratch.workers[..self.scratch.chunks.len()];
        let mut counted = 0usize;
        let mut waiting = 0u64;
        let mut applied = 0u64;
        for worker in chunk_slots {
            counted += worker.counted;
            waiting += worker.waiting;
            applied += worker.grants.len() as u64;
            if qoe_on {
                self.qoe.merge(&worker.qoe);
            }
        }
        self.traffic_total
            .add_data(self.config.segment_bits * applied);

        if counted > 0 {
            // Ascending-order f64 accumulation, as in a serial sweep.
            let mut undelivered_sum = 0.0;
            let mut delivered_sum = 0.0;
            for &(undelivered, delivered) in &self.scratch.ratio_terms[..active_len] {
                undelivered_sum += undelivered;
                delivered_sum += delivered;
            }
            self.ratio_samples.push(RatioSample {
                secs: since_switch,
                undelivered_ratio_s1: undelivered_sum / counted as f64,
                delivered_ratio_s2: delivered_sum / counted as f64,
            });
        }
        if qoe_on {
            self.qoe.finish_period(waiting);
        }
        (counted, waiting)
    }
}

/// Adds one joiner to the overlay and to the channel's membership view —
/// the head of the join rule shared by churn joiners and admitted batches
/// ([`StreamingSystem::settle_joiners`] is the tail).  The neighbours are
/// active, checked by every caller.
fn join_overlay(
    overlay: &mut Overlay,
    view: &mut MembershipView,
    attrs: PeerAttrs,
    neighbours: &[PeerId],
) -> PeerId {
    let id = overlay
        .add_peer(attrs, neighbours)
        .expect("joiner neighbours are active");
    view.on_join(id);
    id
}

/// Pooled working memory of the directory-routed churn pass.
#[derive(Debug, Default)]
struct ChurnScratch {
    eligible: Vec<PeerId>,
    left: Vec<PeerId>,
    joined: Vec<PeerId>,
    neighbours: Vec<PeerId>,
    sampler: SampleScratch,
}

/// The chunk holding active peer `peer`: `chunks` partitions the ascending
/// `active` list into `(start, end)` index ranges.
fn chunk_of(chunks: &[(usize, usize)], active: &[PeerId], peer: PeerId) -> usize {
    chunks.partition_point(|&(start, _)| active[start] <= peer) - 1
}

/// Read-only inputs of one scheduling chunk.
struct ChunkInputs<'a> {
    store: &'a PeerStore,
    overlay: &'a Overlay,
    directory: &'a SessionDirectory,
    config: &'a GossipConfig,
    scheduler: &'a dyn SegmentScheduler,
    /// Outbound rate and whole-segment budget per peer (0 for inactive
    /// peers).
    outbound: &'a [Outbound],
    inbound_rate: &'a [f64],
    /// Buffer-map / request-leg fault draws of a lossy event-mode network.
    faults: Option<&'a LinkFaults>,
    /// The period being scheduled (keys the fault draws).
    period: u64,
}

/// Runs the fused gather + discovery + scheduling + grant pass for one
/// contiguous chunk of the active list.
///
/// Per peer, the neighbour buffers are walked **once**: the walk yields the
/// max advertised id (written to `observed_out`, the chunk's range of the
/// discovery table, and folded with the peer's own buffer into its
/// post-discovery session count) and feeds the same value into the
/// scheduling context.  The scheduled requests then become the peer's
/// grants right away ([`grant_per_link`]), after the event-mode request-leg
/// fault draws if any.  The store is never written — discovery results
/// travel through `observed_out`, grants through the chunk's slot — so the
/// pass stays a pure function of the (immutable) system state plus the
/// chunk's own scratch, which is what makes the parallel fan-out trivially
/// deterministic.
// fss-lint: hot-path
fn schedule_chunk(
    chunk: &[PeerId],
    observed_out: &mut [SegmentId],
    worker: &mut WorkerScratch,
    inputs: &ChunkInputs<'_>,
) {
    debug_assert_eq!(chunk.len(), observed_out.len());
    let ChunkInputs {
        store,
        overlay,
        directory,
        config,
        scheduler,
        outbound,
        inbound_rate,
        faults,
        period,
    } = *inputs;
    // A peer is granted at most ⌊I·τ⌋ segments a period; past its buffer
    // capacity the reservation stops being a useful hint (a huge validated
    // τ would otherwise reserve gigabytes).
    worker.plan(chunk, |p| {
        ((inbound_rate[p as usize] * config.tau_secs).floor() as usize).min(config.buffer_capacity)
    });
    for (i, &p) in chunk.iter().enumerate() {
        // Staged prefetch (see `crate::prefetch`): the second stage reads
        // only lines the first fetched.  A neighbour's buffer map is its
        // buffer struct, advert line included; its outbound entry is what
        // its first supplier hit and its grants read.
        if let Some(&far) = chunk.get(i + 2 * WALK_AHEAD) {
            store.prefetch_peer(far);
            if let Some(first) = overlay.neighbors(far).first() {
                prefetch_read(first);
            }
        }
        if let Some(&ahead) = chunk.get(i + WALK_AHEAD) {
            for &n in overlay.neighbors(ahead) {
                store.prefetch_buffer(n);
                if let Some(entry) = outbound.get(n as usize) {
                    prefetch_read(entry);
                }
            }
        }
        let neighbors = overlay.neighbors(p);

        // One gather serves discovery and the scheduling context.  The
        // discovery fold applies to every active peer — including ones the
        // scheduling skips below — exactly like the standalone pass did.
        let own = store.buffer(p).max_id();
        let mut neighbour_max: Option<SegmentId> = None;
        for &n in neighbors {
            let max = store.buffer(n).max_id();
            if max > neighbour_max {
                neighbour_max = max;
            }
        }
        let observed = own.max(neighbour_max).unwrap_or(SegmentId(0));
        observed_out[i] = observed;

        if neighbors.is_empty() {
            continue;
        }
        // Buffer-map exchange cost: one (B + 20)-bit map per neighbour.
        worker.control_bits += config.buffermap_bits() * neighbors.len() as u64;

        let inbound = inbound_rate[p as usize];
        if inbound <= 0.0 {
            continue;
        }
        // Post-discovery knowledge, computed locally (the store write is
        // deferred to the playback walk).
        let mut known_sessions = store.header(p).known_sessions;
        peer::discover_sessions(&mut known_sessions, directory, observed);

        if !worker.build_context(
            store.peer(p),
            config,
            directory,
            inbound,
            neighbors,
            store,
            outbound,
            known_sessions,
            neighbour_max.unwrap_or(SegmentId(0)),
        ) {
            continue;
        }
        worker.requests.clear();
        scheduler.schedule_into(&worker.ctx, &mut worker.sched, &mut worker.requests);
        if worker.requests.is_empty() {
            continue;
        }
        if let Some(faults) = faults {
            let (blinded, lost) = (&mut worker.requests_blinded, &mut worker.requests_lost);
            worker.requests.retain(|req| {
                if faults.lost(req.supplier, p, MessageKind::BufferMap, period, 0) {
                    *blinded += 1;
                    return false;
                }
                if faults.lost(
                    p,
                    req.supplier,
                    MessageKind::Request,
                    period,
                    req.segment.value(),
                ) {
                    *lost += 1;
                    return false;
                }
                true
            });
        }
        grant_per_link(
            p,
            worker.ctx.inbound_budget(),
            &worker.requests,
            |s| outbound.get(s as usize).map_or(0, |o| o.budget),
            &mut worker.grant,
            &mut worker.grants,
        );
    }
}
// fss-lint: end

/// Read-only inputs of one fused-walk chunk.
struct WalkInputs<'a> {
    config: &'a GossipConfig,
    directory: &'a SessionDirectory,
    /// `(old session, new session, old session's last segment)` during a
    /// switch window.
    switch: Option<(Session, Session, SegmentId)>,
    since_switch: f64,
    qoe_on: bool,
    period: u64,
}

/// The id- and index-ranged tables one walk chunk writes: its peers' QoE
/// slots (when recording) and switch records (both indexed from the
/// chunk's first peer id), and its range of the ratio-term column (empty
/// outside a switch window).
struct ChunkLanes<'a> {
    qoe: Option<&'a mut [PeerQoe]>,
    records: &'a mut [SwitchRecord],
    ratios: &'a mut [(f64, f64)],
}

/// The fused walk of one chunk: applies the chunk's delivery slice, then
/// runs the discovery write, playback advance, QoE observation and switch
/// milestones per peer while its header line and buffer struct are hot.
/// `buffers`/`headers` (and the id-ranged lanes) start at the chunk's first
/// peer id.
// fss-lint: hot-path
fn walk_chunk(
    chunk: &[PeerId],
    observed_max: &[SegmentId],
    buffers: &mut [FifoBuffer],
    headers: &mut [PeerHeader],
    lanes: ChunkLanes<'_>,
    worker: &mut WorkerScratch,
    inputs: &WalkInputs<'_>,
) {
    let base = chunk[0] as usize;
    let ChunkLanes {
        mut qoe,
        records,
        ratios,
    } = lanes;
    let qs = inputs.config.new_source_qs;

    // Delivery: per requester in grant order (lockstep) or arrival order
    // (faulty event mode).
    let grants = &worker.grants;
    for (i, g) in grants.iter().enumerate() {
        if let Some(far) = grants.get(i + 4 * DELIVERY_AHEAD) {
            if let Some(buffer) = buffers.get((far.requester as usize).wrapping_sub(base)) {
                prefetch_lines(buffer);
            }
        }
        if let Some(ahead) = grants.get(i + DELIVERY_AHEAD) {
            if let Some(buffer) = buffers.get((ahead.requester as usize).wrapping_sub(base)) {
                buffer.prefetch_insert(ahead.segment);
            }
        }
        buffers[g.requester as usize - base].insert(g.segment);
    }

    for (i, &p) in chunk.iter().enumerate() {
        let slot = p as usize - base;
        if let Some(&ahead) = chunk.get(i + WALK_AHEAD) {
            let ahead_slot = ahead as usize - base;
            prefetch_lines(&headers[ahead_slot]);
            prefetch_lines(&buffers[ahead_slot]);
        }
        let header = &mut headers[slot];
        peer::discover_sessions(
            &mut header.known_sessions,
            inputs.directory,
            observed_max[i],
        );
        let known = peer::known_slice(header.known_sessions, inputs.directory);
        let buffer = &buffers[slot];
        let played = peer::advance_playback(
            buffer,
            &mut header.playback,
            &mut header.play_credit,
            known,
            inputs.config,
        );
        if let Some(states) = qoe.as_deref_mut() {
            let playback = &header.playback;
            worker.qoe.observe(
                &mut states[slot],
                playback.has_started(),
                playback.stalls(),
                played,
            );
        }
        let Some((old, new, old_end)) = &inputs.switch else {
            continue;
        };
        let record = &mut records[slot];
        if !record.countable() {
            ratios[i] = (0.0, 0.0);
            continue;
        }
        let since_switch = inputs.since_switch;
        let id_play = header.playback.next_play();
        if record.s1_finished_secs.is_none() && id_play > *old_end {
            record.s1_finished_secs = Some(since_switch);
        }
        let q2 = peer::q2_for(buffer, new, qs);
        if record.s2_prepared_secs.is_none() && q2 == 0 {
            record.s2_prepared_secs = Some(since_switch);
        }
        if record.s2_started_secs.is_none() && id_play > new.first_segment {
            record.s2_started_secs = Some(since_switch);
        }
        if !record.completed() {
            worker.waiting += 1;
        }

        // Ratio tracks (Figures 5 and 9): this peer's terms, summed later
        // in ascending order.
        let q1 = peer::undelivered_in_session(buffer, id_play, old, *old_end);
        let undelivered_ratio = if record.q0 == 0 {
            0.0
        } else {
            q1 as f64 / record.q0 as f64
        };
        let delivered_ratio = (qs - q2) as f64 / qs as f64;
        ratios[i] = (undelivered_ratio, delivered_ratio);
        worker.counted += 1;
    }
}
// fss-lint: end

#[cfg(test)]
mod tests {
    use super::*;
    use fss_core::{SchedulerScratch, SchedulingContext, SegmentRequest};
    use fss_overlay::OverlayBuilder;
    use fss_trace::{GeneratorConfig, TraceGenerator};

    /// A simple priority-free scheduler used only by these tests: request
    /// candidates oldest-first, spreading requests across suppliers so no
    /// single supplier is asked for more than its per-period capacity.
    struct GreedyOldest;
    impl SegmentScheduler for GreedyOldest {
        fn name(&self) -> &'static str {
            "greedy-oldest"
        }
        fn schedule_into(
            &self,
            ctx: &SchedulingContext,
            _scratch: &mut SchedulerScratch,
            requests: &mut Vec<SegmentRequest>,
        ) {
            requests.clear();
            let mut candidates = ctx.candidates.clone();
            candidates.sort_unstable_by_key(|c| c.id);
            let mut load: std::collections::HashMap<fss_overlay::PeerId, usize> =
                std::collections::HashMap::new();
            for c in candidates {
                if requests.len() >= ctx.inbound_budget() {
                    break;
                }
                let best = ctx
                    .suppliers_of(&c)
                    .iter()
                    .map(|s| ctx.neighbour(s))
                    .filter(|s| {
                        let cap = (s.rate * ctx.tau_secs).floor() as usize;
                        load.get(&s.peer).copied().unwrap_or(0) < cap
                    })
                    .min_by(|a, b| {
                        let la = *load.get(&a.peer).unwrap_or(&0) as f64 / a.rate;
                        let lb = *load.get(&b.peer).unwrap_or(&0) as f64 / b.rate;
                        la.partial_cmp(&lb).unwrap()
                    });
                if let Some(best) = best {
                    *load.entry(best.peer).or_default() += 1;
                    requests.push(SegmentRequest {
                        segment: c.id,
                        supplier: best.peer,
                    });
                }
            }
        }
    }

    fn build_system(nodes: usize, seed: u64) -> StreamingSystem {
        build_system_with(nodes, seed, GossipConfig::paper_default())
    }

    fn build_system_with(nodes: usize, seed: u64, config: GossipConfig) -> StreamingSystem {
        let trace = TraceGenerator::new(GeneratorConfig::sized(nodes, seed)).generate("sys");
        let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
        StreamingSystem::new(overlay, config, Box::new(GreedyOldest))
    }

    fn first_two(sys: &StreamingSystem) -> (PeerId, PeerId) {
        let peers: Vec<PeerId> = sys.overlay().active_peers().take(2).collect();
        (peers[0], peers[1])
    }

    #[test]
    fn huge_validated_tau_runs_two_periods() {
        // ⌊I·τ⌋ is in the millions here; the chunk's grant reservation is
        // capped at the buffer capacity per peer instead of reserving tens
        // of gigabytes.
        let config = GossipConfig {
            tau_secs: 1e6,
            play_rate: 1e-5,
            ..GossipConfig::paper_default()
        };
        config.validate().unwrap();
        let mut sys = build_system_with(200, 1, config);
        let (source, _) = first_two(&sys);
        sys.start_initial_source(source);
        sys.run_periods(2);
        assert_eq!(sys.periods(), 2);
    }

    #[test]
    fn huge_validated_tau_reserves_a_bounded_calendar() {
        // ⌈p·τ⌉ + 1 grows with τ; the calendar reserves at most B grants per
        // requester and period, so a longer period reserves no more.  At
        // p·τ = B, the most a valid config may emit, ⌈p·τ⌉ + 1 = B + 1 and
        // the cap binds: such a config reserves exactly what p·τ = B − 1
        // (⌈p·τ⌉ + 1 = B) reserves at the same τ.
        let with_tau = |tau_secs, play_rate| {
            let config = GossipConfig {
                tau_secs,
                play_rate,
                ..GossipConfig::paper_default()
            };
            let mut sys = build_system_with(200, 1, config);
            sys.set_network(NetworkConfig::ideal());
            sys
        };
        let reserved = |sys: &StreamingSystem| sys.network().unwrap().calendar.reserved_entries();
        // τ = 64 s keeps p·τ = 600 = B and 599 exact in binary.
        assert_eq!(
            reserved(&with_tau(64.0, 9.375)),
            reserved(&with_tau(64.0, 9.359375))
        );
        let minute = reserved(&with_tau(60.0, 10.0));
        let mut sys = with_tau(1_000.0, 0.6);
        assert!(reserved(&sys) <= minute);
        let (source, _) = first_two(&sys);
        sys.start_initial_source(source);
        sys.run_periods(2);
        assert_eq!(sys.periods(), 2);
    }

    #[test]
    fn warmup_reaches_steady_playback() {
        let mut sys = build_system(60, 1);
        let (source, _) = first_two(&sys);
        sys.start_initial_source(source);
        sys.run_periods(40);

        assert_eq!(sys.periods(), 40);
        // Every node should have started playing and be within a few periods
        // of the stream head.
        let head = 40.0 * 10.0;
        let mut started = 0;
        for p in sys.overlay().active_peers() {
            if p == source {
                continue;
            }
            let node = sys.peer(p);
            if node.playback().has_started() {
                started += 1;
                assert!(node.id_play().value() as f64 <= head);
                assert!(
                    node.id_play().value() as f64 >= head - 200.0,
                    "node {p} lags too far: {}",
                    node.id_play()
                );
            }
        }
        assert!(
            started as f64 >= 0.95 * (sys.overlay().active_count() - 1) as f64,
            "only {started} nodes started playback"
        );
        assert!(sys.report().traffic_total.control_bits > 0);
        assert!(sys.report().traffic_total.data_bits > 0);
    }

    #[test]
    fn switch_completes_and_records_milestones() {
        let mut sys = build_system(60, 2);
        let (s1, s2) = first_two(&sys);
        sys.start_initial_source(s1);
        sys.run_periods(40);
        sys.switch_source(s2);
        let executed = sys.run_until_switched(200);
        assert!(executed < 200, "switch never completed");

        let report = sys.report();
        assert_eq!(report.scheduler, "greedy-oldest");
        assert!(report.switch_completed_secs.is_some());
        let countable: Vec<&SwitchRecord> = sys
            .switch_records()
            .iter()
            .filter(|r| r.countable())
            .collect();
        assert!(!countable.is_empty());
        for r in &countable {
            assert!(r.completed());
            let finished = r.s1_finished_secs.unwrap();
            let prepared = r.s2_prepared_secs.unwrap();
            assert!(finished >= 0.0 && prepared >= 0.0);
            if let Some(started) = r.s2_started_secs {
                assert!(started + 1e-9 >= finished.max(prepared) - 1.0);
            }
        }
        // The report's aggregate folds exactly those records.
        assert_eq!(
            report.switch,
            SwitchStats::from_records(sys.switch_records())
        );
        assert_eq!(report.switch.countable_nodes, countable.len());
        assert_eq!(report.switch.completed_nodes, countable.len());
        // The new source is excluded from the averages.
        assert!(!sys.switch_records()[s2 as usize].countable());

        // Ratio samples move in the right directions.
        assert!(!report.ratio_samples.is_empty());
        let first = report.ratio_samples.first().unwrap();
        let last = report.ratio_samples.last().unwrap();
        assert!(last.undelivered_ratio_s1 <= first.undelivered_ratio_s1 + 1e-9);
        assert!(last.delivered_ratio_s2 >= first.delivered_ratio_s2 - 1e-9);
        assert!((last.delivered_ratio_s2 - 1.0).abs() < 1e-9);

        // Communication overhead is on the order of a percent.
        let overhead = report.traffic_switch_window.overhead();
        assert!(overhead > 0.001 && overhead < 0.1, "overhead {overhead}");
    }

    #[test]
    fn dynamic_environment_with_churn_still_completes() {
        let mut sys = build_system(80, 3);
        let (s1, s2) = first_two(&sys);
        sys.start_initial_source(s1);
        sys.run_periods(30);
        sys.set_churn(ChurnModel::paper_default(99));
        sys.switch_source(s2);
        let executed = sys.run_until_switched(300);
        assert!(executed < 300, "switch never completed under churn");

        // Some nodes left, some joined; joiners are not countable.
        assert!(sys.switch_records().len() > 80);
        assert!(sys.switch_records().iter().any(|r| r.departed));
        assert!(sys.switch_records().iter().skip(80).all(|r| !r.countable()));
    }

    #[test]
    fn determinism_same_seed_same_report() {
        let run = || {
            let mut sys = build_system(50, 7);
            let (s1, s2) = first_two(&sys);
            sys.start_initial_source(s1);
            sys.run_periods(25);
            sys.switch_source(s2);
            sys.run_periods(40);
            sys.report()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
    }

    /// Runs every chunk of a dispatch on its own scoped thread.
    struct ThreadPerChunk;

    impl JobExecutor for ThreadPerChunk {
        fn execute(&self, chunks: usize, job: &dyn fss_sim::ScopedJob) {
            std::thread::scope(|scope| {
                for chunk in 0..chunks {
                    scope.spawn(move || job.run_chunk(chunk));
                }
            });
        }
    }

    /// Multi-shard periods whose chunks run concurrently report exactly
    /// what the single-chunk period does.
    #[test]
    fn parallel_sweep_is_byte_identical() {
        let run = |shards: usize| {
            let mut sys = build_system(80, 17);
            sys.set_shards(shards);
            sys.set_executor(Arc::new(ThreadPerChunk));
            let (s1, s2) = first_two(&sys);
            sys.start_initial_source(s1);
            sys.run_periods(25);
            sys.set_churn(ChurnModel::paper_default(3));
            sys.switch_source(s2);
            sys.run_periods(50);
            sys.report()
        };
        let sequential = run(1);
        for shards in [2, 3, 8] {
            assert_eq!(run(shards), sequential, "shards = {shards}");
        }
    }

    /// The sharding invariant: re-partitioning the peer store changes only
    /// the chunk boundaries of the scheduling pass, never the results —
    /// even when churn grows the population across shard boundaries.
    #[test]
    fn sharded_stepping_is_byte_identical() {
        let run = |shards: usize| {
            let mut sys = build_system(80, 17);
            sys.set_shards(shards);
            assert!(sys.shard_count() >= shards.min(1));
            let (s1, s2) = first_two(&sys);
            sys.start_initial_source(s1);
            sys.run_periods(25);
            sys.set_churn(ChurnModel::paper_default(3));
            sys.switch_source(s2);
            sys.run_periods(50);
            sys.report()
        };
        let single = run(1);
        for shards in [2, 4, 8] {
            assert_eq!(run(shards), single, "shards = {shards}");
        }
    }

    /// Satellite: cost-balanced chunk splitting.  A densely populated shard
    /// must not serialise the scheduling pass behind one oversized chunk —
    /// runs longer than twice the mean run length split into equal,
    /// order-preserving pieces under that cap.
    #[test]
    fn plan_chunks_splits_skewed_shard_runs() {
        let mut sys = build_system(200, 3);
        sys.set_shards(8);
        let shard_size = sys.peers.shard_size();
        let shard_count = sys.peers.shard_count();
        assert!(shard_count >= 4, "need a multi-shard geometry");
        assert!(shard_size >= 16);

        // Skewed population: 16 actives packed into shard 0, one straggler
        // in each of the next three shards.
        let base = |s: usize| (s * shard_size) as PeerId;
        sys.scratch.active.clear();
        for i in 0..16 {
            sys.scratch.active.push(base(0) + i as PeerId);
        }
        sys.scratch.active.push(base(1));
        sys.scratch.active.push(base(2));
        sys.scratch.active.push(base(3));
        let total = sys.scratch.active.len();

        sys.plan_chunks();
        let chunks = sys.scratch.chunks.clone();

        // Order-preserving partition of the active list.
        let mut expect_start = 0usize;
        for &(start, end) in &chunks {
            assert_eq!(start, expect_start, "chunks must tile in order");
            assert!(end >= start);
            expect_start = end;
        }
        assert_eq!(expect_start, total);

        // 4 runs over 19 actives: cap = 2 * 19 / 4 = 9, so the 16-long
        // shard-0 run must split (into two 8s) and no chunk may exceed the
        // cap.
        let cap = 2 * total / 4;
        assert!(chunks.len() > 4, "skewed run did not split: {chunks:?}");
        for &(start, end) in &chunks {
            assert!(
                end - start <= cap,
                "chunk {start}..{end} exceeds cost cap {cap}"
            );
            // No chunk straddles a shard boundary.
            if end > start {
                let first = sys.scratch.active[start] as usize / shard_size;
                let last = sys.scratch.active[end - 1] as usize / shard_size;
                assert_eq!(first, last, "chunk {start}..{end} straddles shards");
            }
        }

        // A balanced population keeps the one-chunk-per-run plan.
        sys.scratch.active.clear();
        for s in 0..4 {
            for i in 0..4 {
                sys.scratch.active.push(base(s) + i as PeerId);
            }
        }
        sys.plan_chunks();
        assert_eq!(sys.scratch.chunks.len(), 4, "{:?}", sys.scratch.chunks);
    }

    #[test]
    fn external_depart_and_admit_mirror_churn() {
        let mut sys = build_system(30, 8);
        let (source, viewer) = first_two(&sys);
        sys.start_initial_source(source);
        sys.run_periods(20);

        sys.depart_batch(&[viewer]).unwrap();
        assert!(!sys.overlay().graph().is_active(viewer));
        assert!(sys.switch_records()[viewer as usize].departed);

        let neighbours: Vec<PeerId> = sys.overlay().active_peers().take(5).collect();
        let attrs = *sys.overlay().attrs(source).unwrap();
        let mut ids = Vec::new();
        sys.admit_batch(&[attrs], &neighbours, neighbours.len(), &mut ids)
            .unwrap();
        let joined = ids[0];
        assert!(sys.overlay().graph().is_active(joined));
        // The arrival follows its neighbours' playback steps, like a churn
        // joiner: its join point is at (or past) the slowest neighbour.
        let min_neighbour_play = neighbours
            .iter()
            .map(|&n| sys.peer(n).id_play())
            .min()
            .unwrap();
        assert!(sys.peer(joined).playback().join_point() >= min_neighbour_play);
        sys.run_periods(5); // the system keeps running with the newcomer
    }

    /// The batched membership pair: departures and arrivals repair the
    /// membership once per batch, arrivals within a batch may neighbour
    /// each other, and empty batches are no-ops.
    #[test]
    fn batched_zap_hooks_mirror_single_peer_calls() {
        let mut sys = build_system(40, 9);
        let (source, _) = first_two(&sys);
        sys.start_initial_source(source);
        sys.run_periods(20);

        let leavers: Vec<PeerId> = sys
            .overlay()
            .active_peers()
            .filter(|&p| p != source)
            .take(4)
            .collect();
        sys.depart_batch(&leavers).unwrap();
        for &p in &leavers {
            assert!(!sys.overlay().graph().is_active(p));
            assert!(sys.switch_records()[p as usize].departed);
        }
        // Membership was repaired: every active node keeps its min degree.
        let min_degree = sys.overlay().config().min_degree;
        for p in sys.overlay().active_peers().collect::<Vec<_>>() {
            assert!(sys.overlay().neighbors(p).len() >= min_degree.min(3));
        }

        // Admit a batch in which the second arrival neighbours the first.
        let attrs = *sys.overlay().attrs(source).unwrap();
        let hosts: Vec<PeerId> = sys.overlay().active_peers().take(2).collect();
        let first_id = sys.overlay().graph().capacity() as PeerId;
        let flat = [hosts[0], hosts[1], hosts[0], first_id];
        let mut ids = Vec::new();
        sys.admit_batch(&[attrs; 2], &flat, 2, &mut ids).unwrap();
        assert_eq!(ids, [first_id, first_id + 1]);
        for (&id, neighbours) in ids.iter().zip(flat.chunks(2)) {
            assert!(sys.overlay().graph().is_active(id));
            // Each joiner's join point is at or past its slowest neighbour's.
            let slowest = neighbours.iter().map(|&n| sys.peer(n).id_play()).min();
            assert!(sys.peer(id).playback().join_point() >= slowest.unwrap());
        }
        assert!(sys.overlay().neighbors(ids[1]).contains(&ids[0]));

        // Empty batches are no-ops: no repair pass, so no edge changes.
        let edges = sys.overlay().graph().edge_count();
        sys.depart_batch(&[]).unwrap();
        sys.admit_batch(&[], &[], 2, &mut ids).unwrap();
        assert!(ids.is_empty());
        assert_eq!(sys.overlay().graph().edge_count(), edges);
        assert_eq!(sys.overlay().graph().capacity(), first_id as usize + 2);
        sys.run_periods(5);
    }

    /// A rejected membership batch changes nothing: the whole batch is
    /// validated before the first mutation, so the overlay, the store, the
    /// view and the switch records stay in step and the system keeps
    /// running.
    #[test]
    fn rejected_membership_batches_leave_the_system_untouched() {
        let mut sys = build_system(40, 10);
        let (source, host) = first_two(&sys);
        sys.start_initial_source(source);
        sys.run_periods(10);
        let gone = sys
            .overlay()
            .active_peers()
            .find(|&p| p != source && p != host)
            .unwrap();
        sys.depart_batch(&[gone]).unwrap();
        let stay = sys
            .overlay()
            .active_peers()
            .find(|&p| p != source && p != host)
            .unwrap();

        let shape = |sys: &StreamingSystem| {
            (
                sys.overlay().graph().capacity(),
                sys.overlay().active_count(),
                sys.peer_store().len(),
                sys.membership_view().len(),
                sys.switch_records().len(),
            )
        };
        let before = shape(&sys);
        let attrs = *sys.overlay().attrs(host).unwrap();
        let mut ids = vec![7];
        let next = before.0 as PeerId;

        // A departed neighbour, an unknown one, and a forward reference to
        // a later arrival of the same batch.
        let rejected: [(&[PeerId], PeerId); 3] = [
            (&[host, gone], gone),
            (&[host, 9_999], 9_999),
            (&[host, next + 1, host, next], next + 1),
        ];
        for (flat, unknown) in rejected {
            let batch = [attrs; 2];
            let arrivals = &batch[..flat.len() / 2];
            assert_eq!(
                sys.admit_batch(arrivals, flat, 2, &mut ids),
                Err(OverlayError::UnknownPeer { peer: unknown })
            );
            assert!(ids.is_empty());
            assert_eq!(shape(&sys), before);
        }

        // A departed or repeated leaver rejects the whole batch, and the
        // valid leaver listed first stays.
        for batch in [[stay, gone], [stay, stay]] {
            assert!(sys.depart_batch(&batch).is_err());
            assert!(sys.overlay().graph().is_active(stay));
            assert!(!sys.switch_records()[stay as usize].departed);
            assert_eq!(shape(&sys), before);
        }

        sys.run_periods(3);
        assert_eq!(sys.periods(), 13);
    }

    /// The report-surfaced memory meter: counts active peers, reports a
    /// positive per-peer footprint, and the compact layout's saving over
    /// the legacy (u64-ring / u32-seq) layout meets the ≥ 40 % target.
    #[test]
    fn memory_meter_tracks_active_peer_state() {
        let mut sys = build_system(60, 31);
        let (s1, _) = first_two(&sys);
        sys.start_initial_source(s1);
        sys.run_periods(40);
        let mem = sys.report().mem;
        assert_eq!(mem.active_peers, sys.overlay().active_count());
        assert_eq!(mem.peer_slots, 60);
        assert!(mem.bytes_per_peer() > 0.0);
        assert!(mem.max_peer_bytes >= mem.peer_bytes / mem.active_peers as u64);
        assert!(
            mem.reduction_vs_legacy() >= 0.40,
            "compact layout must save ≥ 40% vs the legacy layout, got {:.1}%",
            100.0 * mem.reduction_vs_legacy()
        );
        // The breakdown components sum into the per-peer bytes.
        assert!(mem.ring_bytes + mem.window_bytes + mem.seq_bytes <= mem.peer_bytes);
    }

    /// The directory invariant: the membership view mirrors the overlay's
    /// active set exactly — in ascending-id (`active_peers()`) order —
    /// through churn and batched zaps alike.
    #[test]
    fn membership_view_stays_in_sync_with_the_overlay() {
        let mut sys = build_system(60, 19);
        let (source, _) = first_two(&sys);
        sys.start_initial_source(source);
        let check = |sys: &StreamingSystem| {
            let active: Vec<PeerId> = sys.overlay().active_peers().collect();
            assert_eq!(sys.membership_view().members(), &active[..]);
        };
        check(&sys);
        sys.set_churn(ChurnModel::paper_default(3));
        for _ in 0..15 {
            sys.advance();
            check(&sys);
        }
        // Batched zap traffic keeps the view in sync too.
        let leavers: Vec<PeerId> = sys
            .overlay()
            .active_peers()
            .filter(|&p| p != source)
            .take(5)
            .collect();
        sys.depart_batch(&leavers).unwrap();
        check(&sys);
        let attrs = *sys.overlay().attrs(source).unwrap();
        let hosts: Vec<PeerId> = sys.overlay().active_peers().take(4).collect();
        let mut flat = Vec::new();
        for _ in 0..3 {
            flat.extend_from_slice(&hosts);
        }
        let mut ids = Vec::new();
        sys.admit_batch(&[attrs; 3], &flat, hosts.len(), &mut ids)
            .unwrap();
        assert_eq!(ids.len(), 3);
        check(&sys);
        sys.run_periods(5);
        check(&sys);
    }

    #[test]
    #[should_panic(expected = "sources cannot depart")]
    fn departing_a_source_panics() {
        let mut sys = build_system(20, 6);
        let (s1, _) = first_two(&sys);
        sys.start_initial_source(s1);
        let viewer = sys.overlay().active_peers().find(|&p| p != s1).unwrap();
        let active = sys.overlay().active_count();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = sys.depart_batch(&[viewer, s1]);
        }));
        // The panic fires before the batch's first departure.
        assert_eq!(sys.overlay().active_count(), active);
        std::panic::resume_unwind(result.unwrap_err());
    }

    #[test]
    #[should_panic(expected = "initial source already started")]
    fn double_initial_source_panics() {
        let mut sys = build_system(20, 4);
        let (a, b) = first_two(&sys);
        sys.start_initial_source(a);
        sys.start_initial_source(b);
    }

    #[test]
    #[should_panic(expected = "live session")]
    fn switch_without_initial_source_panics() {
        let mut sys = build_system(20, 5);
        let (p, _) = first_two(&sys);
        sys.switch_source(p);
    }

    /// A scheduler whose request stream can be shut off mid-run, starving
    /// every buffer: started peers drain what they hold and then stall.
    struct FaucetScheduler {
        open: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }
    impl SegmentScheduler for FaucetScheduler {
        fn name(&self) -> &'static str {
            "faucet"
        }
        fn schedule_into(
            &self,
            ctx: &SchedulingContext,
            scratch: &mut SchedulerScratch,
            out: &mut Vec<SegmentRequest>,
        ) {
            if self.open.load(std::sync::atomic::Ordering::Relaxed) {
                GreedyOldest.schedule_into(ctx, scratch, out);
            } else {
                out.clear();
            }
        }
    }

    /// Induced buffer starvation produces *exact* stall accounting: every
    /// started non-source peer begins exactly one episode, the stalled
    /// gauge holds at that count for the whole starved window, no episode
    /// ends while starved, and recovery closes exactly as many episodes as
    /// began — with durations covering at least the starved window.
    #[test]
    fn starvation_stall_accounting_is_exact() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        let open = Arc::new(AtomicBool::new(true));
        let trace = TraceGenerator::new(GeneratorConfig::sized(30, 3)).generate("faucet");
        let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
        let mut sys = StreamingSystem::new(
            overlay,
            GossipConfig::paper_default(),
            Box::new(FaucetScheduler { open: open.clone() }),
        );
        let source = sys.overlay().active_peers().next().unwrap();
        sys.start_initial_source(source);
        sys.run_periods(30);

        // Sources hold what they emit, so they never stall; the exact
        // stall population is every *other* started peer.
        let started: u64 = sys
            .overlay()
            .active_peers()
            .filter(|&p| p != source && sys.peer(p).playback().has_started())
            .count() as u64;
        assert!(started > 0, "warmup must start playback");
        assert_eq!(sys.qoe().latest().unwrap().stalled, 0, "no stalls yet");

        // Cut every request and drain the buffers dry.
        open.store(false, Ordering::Relaxed);
        let mut begins = 0u64;
        let mut ends = 0u64;
        let step = |sys: &mut StreamingSystem, begins: &mut u64, ends: &mut u64| {
            sys.advance();
            let row = *sys.qoe().latest().unwrap();
            *begins += row.stall_begins;
            *ends += row.stall_ends;
            row
        };
        let mut fully_stalled = false;
        for _ in 0..40 {
            let row = step(&mut sys, &mut begins, &mut ends);
            if row.stalled == started {
                fully_stalled = true;
                break;
            }
        }
        assert!(fully_stalled, "starvation never stalled every started peer");
        assert_eq!(
            begins, started,
            "each started peer begins exactly one episode"
        );
        assert_eq!(ends, 0, "no episode can end while starved");

        // Hold the starved window: the gauge is pinned at `started`, no new
        // begins or ends, and every peer misses the same per-period play
        // budget — so the missed-opportunity counter repeats exactly.
        const HOLD: u64 = 5;
        let reference = step(&mut sys, &mut begins, &mut ends);
        assert_eq!(reference.stalled, started);
        assert!(reference.stalled_segments > 0);
        for _ in 1..HOLD {
            let row = step(&mut sys, &mut begins, &mut ends);
            assert_eq!(row.stalled, started);
            assert_eq!(row.stall_begins, 0);
            assert_eq!(row.stall_ends, 0);
            assert_eq!(row.stalled_segments, reference.stalled_segments);
        }
        assert_eq!(begins, started);
        assert_eq!(ends, 0);
        let totals_starved = sys.qoe().totals();

        // Reopen the faucet: playback resumes and closes every episode.
        open.store(true, Ordering::Relaxed);
        let mut recovered = false;
        for _ in 0..250 {
            let row = step(&mut sys, &mut begins, &mut ends);
            if row.stalled == 0 {
                recovered = true;
                break;
            }
        }
        assert!(recovered, "playback never recovered after reopening");
        assert_eq!(begins, started, "recovery must not begin new episodes");
        assert_eq!(ends, started, "every episode ends exactly once");
        let totals = sys.qoe().totals();
        assert_eq!(totals.stall_events - totals_starved.stall_events, started);
        assert!(
            totals.stall_periods - totals_starved.stall_periods >= started * HOLD,
            "episode durations must cover the starved window"
        );
        assert!(totals.continuity().unwrap() < 1.0);
    }

    // ------------------------------------------------------------------
    // event-driven stepping mode
    // ------------------------------------------------------------------

    /// Runs `periods` on a fresh churned system with an optional network
    /// model, stepping through `advance()`, and returns it.
    fn run_with_network(net: Option<NetworkConfig>, periods: u64) -> StreamingSystem {
        let mut sys = build_system(120, 0xE7E7);
        let source = sys.overlay().active_peers().next().unwrap();
        sys.set_churn(ChurnModel::new(0.03, 0.03, 5, 0xC0FFEE));
        if let Some(config) = net {
            sys.set_network(config);
        }
        sys.start_initial_source(source);
        sys.run_periods(periods / 2);
        let target = sys
            .overlay()
            .active_peers()
            .filter(|&p| p != source)
            .nth(10)
            .unwrap();
        sys.switch_source(target);
        sys.run_periods(periods - periods / 2);
        sys
    }

    #[test]
    fn ideal_event_mode_matches_period_mode_byte_for_byte() {
        let period = run_with_network(None, 40).report();
        let event = run_with_network(Some(NetworkConfig::ideal()), 40).report();
        assert_eq!(period, event);
    }

    #[test]
    fn ideal_event_mode_skips_every_fault_draw() {
        let sys = run_with_network(Some(NetworkConfig::ideal()), 30);
        let stats = sys.network_stats();
        assert!(stats.data_sent > 0);
        assert_eq!(stats.data_sent, stats.data_delivered);
        assert_eq!(stats.data_lost, 0);
        assert_eq!(stats.requests_lost + stats.requests_blinded, 0);
        assert_eq!(stats.data_stale, 0);
        assert_eq!(sys.network().unwrap().in_flight(), 0);
    }

    #[test]
    fn lossy_event_mode_is_deterministic_and_drops_data() {
        let config = NetworkConfig::lossy(0.15, 0xBAD);
        let a = run_with_network(Some(config), 40);
        let b = run_with_network(Some(config), 40);
        assert_eq!(a.report(), b.report());
        assert_eq!(a.network_stats(), b.network_stats());

        let stats = a.network_stats();
        assert!(stats.data_lost > 0, "15% loss must drop something");
        assert!(stats.requests_lost + stats.requests_blinded > 0);
        let ideal = run_with_network(Some(NetworkConfig::ideal()), 40);
        assert!(
            a.report().traffic_total.data_bits < ideal.report().traffic_total.data_bits,
            "loss must reduce delivered data traffic"
        );
        // Every sent message is accounted exactly once.
        assert_eq!(
            stats.data_sent,
            stats.data_lost
                + stats.data_delivered
                + stats.data_stale
                + a.network().unwrap().in_flight() as u64
        );
    }

    #[test]
    fn latency_defers_arrivals_across_period_boundaries() {
        // Scale the trace RTTs far past τ so every transfer spans at least
        // one boundary: the first scheduling period completes with data in
        // flight and none delivered.
        let mut sys = build_system(80, 0x11AA);
        let source = sys.overlay().active_peers().next().unwrap();
        sys.set_network(NetworkConfig::delayed(50.0, 0));
        sys.start_initial_source(source);
        sys.run_periods(2);
        let after_two = sys.network_stats();
        assert!(after_two.data_sent > 0, "grants must be dispatched");
        assert!(
            sys.network().unwrap().in_flight() > 0,
            "scaled latency must leave messages in flight at the boundary"
        );
        sys.run_periods(60);
        let stats = sys.network_stats();
        assert!(
            stats.data_delivered > 0,
            "delayed messages must eventually land"
        );
        assert!(stats.max_in_flight >= after_two.data_sent.min(1));
        // Jitter alone must also defer nothing incorrectly: totals conserve.
        assert_eq!(
            stats.data_sent,
            stats.data_delivered + stats.data_stale + sys.network().unwrap().in_flight() as u64
        );
    }

    /// Ids are never reused, so every departure leaves its slot behind.
    /// Over a lossy, delayed event-mode run with churn and a zap batch
    /// every period, every departed slot keeps only its inline state: the
    /// buffer storage of a departed peer (~4 KB of segments) is released.
    #[test]
    fn departed_slots_keep_only_inline_state() {
        let mut sys = build_system(80, 0xDE9A);
        let source = sys.overlay().active_peers().next().unwrap();
        sys.set_churn(ChurnModel::new(0.02, 0.02, 5, 0xD0D0));
        sys.set_network(NetworkConfig {
            latency_scale: 10.0,
            loss_rate: 0.05,
            jitter_ms: 20,
            seed: 0x77,
        });
        sys.start_initial_source(source);
        sys.run_periods(10);
        let attrs = *sys.overlay().attrs(source).unwrap();
        let departed =
            |sys: &StreamingSystem| sys.switch_records().iter().filter(|r| r.departed).count();
        let departed_before = departed(&sys);
        let mut ids = Vec::new();
        for period in 0..300 {
            // A zap batch: two viewers leave, two arrive.
            let leavers: Vec<PeerId> = sys
                .overlay()
                .active_peers()
                .filter(|&p| p != source)
                .skip(period % 7)
                .take(2)
                .collect();
            sys.depart_batch(&leavers).unwrap();
            let hosts: Vec<PeerId> = sys.overlay().active_peers().take(4).collect();
            let flat = [&hosts[..], &hosts[..]].concat();
            sys.admit_batch(&[attrs; 2], &flat, hosts.len(), &mut ids)
                .unwrap();
            sys.advance();

            let store = sys.peer_store();
            for peer in 0..store.len() as PeerId {
                if sys.overlay().graph().is_active(peer) {
                    continue;
                }
                let held = store.buffer(peer).mem_breakdown().heap_total();
                assert_eq!(
                    held, 0,
                    "period {period}: departed peer {peer} still holds {held} B of buffer"
                );
            }
        }
        assert!(departed(&sys) - departed_before >= 600);
        assert!(sys.network_stats().data_stale > 0);
    }

    /// The event-mode delivery exchange runs only with a network model;
    /// `advance` never calls it without one.
    #[test]
    #[should_panic(expected = "event-driven stepping requires")]
    fn event_step_requires_a_network_model() {
        let mut sys = build_system(40, 0x5152);
        let source = sys.overlay().active_peers().next().unwrap();
        sys.start_initial_source(source);
        sys.advance();
        sys.exchange_deliveries();
    }
}
