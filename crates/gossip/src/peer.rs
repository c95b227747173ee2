//! Per-node protocol state.
//!
//! A [`PeerNode`] is the *logical* per-peer record: a node's buffer and
//! playback state and the count of serial sessions the node has
//! *discovered* (§3: "a node does not know the source switch process until
//! it discovers data segments of a new source in its neighbors").  The
//! scheduling context handed to the switch algorithm each period is built
//! by [`WorkerScratch::build_context`](crate::scratch::WorkerScratch::build_context).
//!
//! Since the struct-of-arrays refactor the running system no longer stores
//! `PeerNode` values — the record's four fields live as parallel columns
//! inside the sharded [`PeerStore`](crate::store::PeerStore), and the
//! protocol logic is shared with the store's [`PeerRef`](crate::store::PeerRef)
//! / [`PeerMut`](crate::store::PeerMut) views through the free functions of
//! this module.  `PeerNode` remains the construction currency (churn
//! joiners, zap arrivals), the standalone unit-test surface for the
//! protocol rules, and the definition of the per-peer inline stride the
//! memory meter reports.

use crate::buffer::FifoBuffer;
use crate::config::GossipConfig;
use crate::mem::MemoryFootprint;
use crate::playback::PlaybackState;
use crate::segment::{SegmentId, Session, SessionDirectory};
use fss_overlay::PeerId;

/// Protocol state of one overlay node.
#[derive(Debug, Clone)]
pub struct PeerNode {
    id: PeerId,
    buffer: FifoBuffer,
    playback: PlaybackState,
    /// How many sessions (prefix of the directory) this node has discovered.
    known_sessions: usize,
    /// Fractional playback credit carried across periods.
    play_credit: f64,
}

impl PeerNode {
    /// Creates a node that will join the stream at `join_point`.
    pub fn new(id: PeerId, config: &GossipConfig, join_point: SegmentId) -> Self {
        PeerNode {
            id,
            buffer: FifoBuffer::new(config.buffer_capacity),
            playback: PlaybackState::new(join_point),
            known_sessions: 0,
            play_credit: 0.0,
        }
    }

    /// The node's peer id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// The node's segment buffer.
    pub fn buffer(&self) -> &FifoBuffer {
        &self.buffer
    }

    /// Mutable access to the buffer (segment deliveries, source emission).
    pub fn buffer_mut(&mut self) -> &mut FifoBuffer {
        &mut self.buffer
    }

    /// The node's playback state.
    pub fn playback(&self) -> &PlaybackState {
        &self.playback
    }

    /// Number of sessions this node has discovered.
    pub fn known_sessions(&self) -> usize {
        self.known_sessions
    }

    /// The id the node will play next (`id_play`).
    pub fn id_play(&self) -> SegmentId {
        self.playback.next_play()
    }

    /// Moves the join point before playback starts (churn joiners follow
    /// their neighbours' current playback position).
    pub fn rejoin_at(&mut self, join_point: SegmentId) {
        self.playback.rejoin_at(join_point);
    }

    /// Discovers sessions: the node learns every session whose first segment
    /// is at or below `observed_max`, in serial order.  Sources call this with
    /// their own session's first segment when they start emitting.
    pub fn discover_sessions(&mut self, directory: &SessionDirectory, observed_max: SegmentId) {
        discover_sessions(&mut self.known_sessions, directory, observed_max);
    }

    /// The sessions this node currently knows about.
    pub fn known<'d>(&self, directory: &'d SessionDirectory) -> &'d [Session] {
        known_slice(self.known_sessions, directory)
    }

    /// Undelivered segments of `session` that the node still needs, i.e. ids
    /// in `[max(id_play, first), end]` missing from its buffer.  `end` falls
    /// back to `fallback_end` for a live session.
    pub fn undelivered_in_session(&self, session: &Session, fallback_end: SegmentId) -> usize {
        undelivered_in_session(&self.buffer, self.id_play(), session, fallback_end)
    }

    /// `Q2` for a new session: how many of its first `Qs` segments are still
    /// missing.
    pub fn q2_for(&self, session: &Session, qs: usize) -> usize {
        q2_for(&self.buffer, session, qs)
    }

    /// True when the node holds all of the first `Qs` segments of `session`.
    pub fn prepared_for(&self, session: &Session, qs: usize) -> bool {
        self.q2_for(session, qs) == 0
    }

    /// Advances playback by one period.
    ///
    /// Playback starts after `Q` consecutive segments from the join point;
    /// a next session is gated until all of its first `Qs` segments are
    /// present (and, implicitly, until the previous stream has been fully
    /// played — playback is sequential).  Returns the number of segments
    /// played.
    pub fn advance_playback(&mut self, config: &GossipConfig, directory: &SessionDirectory) -> u64 {
        let known = known_slice(self.known_sessions, directory);
        advance_playback(
            &self.buffer,
            &mut self.playback,
            &mut self.play_credit,
            known,
            config,
        )
    }

    /// Decomposes the record into its columns, in
    /// [`PeerStore`](crate::store::PeerStore) column order: buffer, playback,
    /// known-session count, playback credit.
    pub(crate) fn into_parts(self) -> (FifoBuffer, PlaybackState, usize, f64) {
        (
            self.buffer,
            self.playback,
            self.known_sessions,
            self.play_credit,
        )
    }
}

/// [`PeerNode::discover_sessions`] over a bare known-session counter.
pub(crate) fn discover_sessions(
    known_sessions: &mut usize,
    directory: &SessionDirectory,
    observed_max: SegmentId,
) {
    let sessions = directory.sessions();
    while *known_sessions < sessions.len()
        && sessions[*known_sessions].first_segment <= observed_max
    {
        *known_sessions += 1;
    }
}

/// [`PeerNode::known`] over a bare known-session counter.
pub(crate) fn known_slice(known_sessions: usize, directory: &SessionDirectory) -> &[Session] {
    &directory.sessions()[..known_sessions.min(directory.len())]
}

/// [`PeerNode::undelivered_in_session`] over bare columns.
pub(crate) fn undelivered_in_session(
    buffer: &FifoBuffer,
    id_play: SegmentId,
    session: &Session,
    fallback_end: SegmentId,
) -> usize {
    let end = session.last_segment.unwrap_or(fallback_end);
    let start = id_play.max(session.first_segment);
    if end < start {
        return 0;
    }
    let span = (end.value() - start.value() + 1) as usize;
    span - buffer.count_in_range(start, end)
}

/// [`PeerNode::q2_for`] over a bare buffer column.
pub(crate) fn q2_for(buffer: &FifoBuffer, session: &Session, qs: usize) -> usize {
    let first = session.first_segment;
    let last = first.offset(qs as u64 - 1);
    qs - buffer.count_in_range(first, last)
}

/// [`PeerNode::advance_playback`] over bare columns (the known-session prefix
/// is resolved by the caller).
pub(crate) fn advance_playback(
    buffer: &FifoBuffer,
    playback: &mut PlaybackState,
    play_credit: &mut f64,
    known: &[Session],
    config: &GossipConfig,
) -> u64 {
    playback.try_start(buffer, config.startup_q);
    if !playback.has_started() {
        return 0;
    }
    *play_credit += config.play_per_period();
    let budget = play_credit.floor() as u64;
    if budget == 0 {
        return 0;
    }
    *play_credit -= budget as f64;

    // Gate: the first discovered *new* session (one that started after the
    // node joined) that the node has not yet begun playing and whose first
    // `Qs` segments are not all present caps playback at its first
    // segment.  The session the node joined on is instead governed by the
    // Q-consecutive startup rule above.
    let limit = known
        .iter()
        .filter(|s| {
            s.first_segment > playback.join_point() && s.first_segment >= playback.next_play()
        })
        .find(|s| q2_for(buffer, s, config.new_source_qs) != 0)
        .map(|s| s.first_segment);

    playback.advance(buffer, budget, limit)
}

impl MemoryFootprint for PeerNode {
    /// A node's heap is its buffer: playback, discovery and credit state
    /// are inline scalars.
    fn heap_bytes(&self) -> usize {
        self.buffer.heap_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scheduler::SchedulingContext;
    use crate::scratch::WorkerScratch;
    use crate::store::PeerStore;

    fn config() -> GossipConfig {
        GossipConfig {
            new_source_qs: 5,
            startup_q: 3,
            ..GossipConfig::paper_default()
        }
    }

    /// Directory with S1 = [0, 99] (closed) and S2 = [100, ...) live.
    fn switched_directory() -> SessionDirectory {
        let mut dir = SessionDirectory::new();
        dir.start_session(0, 0.0, None);
        dir.start_session(1, 50.0, Some(SegmentId(99)));
        dir
    }

    /// `node`'s scheduling context from the production builder, with the
    /// neighbours `(outbound rate, buffer)` stored under the ids following
    /// the node's own.
    fn context(
        node: &PeerNode,
        cfg: &GossipConfig,
        dir: &SessionDirectory,
        inbound: f64,
        neighbors: &[(f64, FifoBuffer)],
    ) -> Option<SchedulingContext> {
        let mut store = PeerStore::new(64);
        for id in 0..node.id() {
            store.push(PeerNode::new(id, cfg, SegmentId(0)));
        }
        store.push(node.clone());
        let mut rates = vec![0.0; node.id() as usize + 1];
        let mut ids = Vec::new();
        for (rate, buffer) in neighbors {
            let id = store.len() as PeerId;
            store.push(PeerNode::new(id, cfg, SegmentId(0)));
            *store.buffer_mut(id) = buffer.clone();
            rates.push(*rate);
            ids.push(id);
        }
        let max_advertised = neighbors
            .iter()
            .filter_map(|(_, buffer)| buffer.max_id())
            .max()
            .unwrap_or(SegmentId(0));
        let mut scratch = WorkerScratch::default();
        scratch
            .build_context(
                store.peer(node.id()),
                cfg,
                dir,
                inbound,
                &ids,
                &store,
                &rates,
                node.known_sessions(),
                max_advertised,
            )
            .then(|| scratch.ctx.clone())
    }

    fn neighbor_buffer(ids: &[u64]) -> FifoBuffer {
        let mut b = FifoBuffer::new(600);
        for &i in ids {
            b.insert(SegmentId(i));
        }
        b
    }

    #[test]
    fn discovery_follows_observed_ids() {
        let dir = switched_directory();
        let cfg = config();
        let mut node = PeerNode::new(5, &cfg, SegmentId(0));
        assert_eq!(node.known_sessions(), 0);

        node.discover_sessions(&dir, SegmentId(10));
        assert_eq!(node.known_sessions(), 1);
        assert_eq!(node.known(&dir).len(), 1);

        // Seeing a segment of S2 reveals the switch (and hence S1's end).
        node.discover_sessions(&dir, SegmentId(100));
        assert_eq!(node.known_sessions(), 2);
    }

    #[test]
    fn undelivered_and_q2_counts() {
        let dir = switched_directory();
        let cfg = config();
        let mut node = PeerNode::new(1, &cfg, SegmentId(0));
        node.discover_sessions(&dir, SegmentId(100));
        for i in 0..95u64 {
            node.buffer_mut().insert(SegmentId(i));
        }
        node.buffer_mut().insert(SegmentId(101));

        let s1 = &dir.sessions()[0];
        let s2 = &dir.sessions()[1];
        // Missing 95..=99 of S1.
        assert_eq!(node.undelivered_in_session(s1, SegmentId(99)), 5);
        // Of the first 5 segments of S2 (100..=104) only 101 is held.
        assert_eq!(node.q2_for(s2, 5), 4);
        assert!(!node.prepared_for(s2, 5));
        for i in 100..105u64 {
            node.buffer_mut().insert(SegmentId(i));
        }
        assert!(node.prepared_for(s2, 5));
        assert_eq!(node.q2_for(s2, 5), 0);
    }

    #[test]
    fn context_classifies_old_and_new_candidates() {
        let dir = switched_directory();
        let cfg = config();
        let mut node = PeerNode::new(1, &cfg, SegmentId(0));
        for i in 0..90u64 {
            node.buffer_mut().insert(SegmentId(i));
        }
        node.discover_sessions(&dir, SegmentId(105));

        let neighbors = [
            (12.0, neighbor_buffer(&(80..100).collect::<Vec<_>>())),
            (20.0, neighbor_buffer(&(95..106).collect::<Vec<_>>())),
        ];

        let ctx = context(&node, &cfg, &dir, 15.0, &neighbors).expect("has candidates");
        assert!(ctx.switch_in_progress());
        assert_eq!(ctx.q1, 10, "missing 90..=99 of S1");
        assert_eq!(ctx.q2, 5, "none of 100..=104 held");
        assert_eq!(ctx.inbound_budget(), 15);

        // Candidates 90..=99 (old) and 100..=105 (new), all with suppliers.
        assert_eq!(ctx.candidates.len(), 16);
        let old_count = ctx
            .candidates
            .iter()
            .filter(|c| ctx.class_of(c.id) == crate::scheduler::StreamClass::Old)
            .count();
        assert_eq!(old_count, 10);
        // Segment 97 is held by both neighbours.
        let c97 = ctx
            .candidates
            .iter()
            .find(|c| c.id == SegmentId(97))
            .unwrap();
        assert_eq!(c97.suppliers.len(), 2);
        assert_eq!(ctx.max_rate(c97), 20.0);
    }

    #[test]
    fn context_is_none_without_needs_or_neighbors() {
        let dir = switched_directory();
        let cfg = config();
        let mut node = PeerNode::new(1, &cfg, SegmentId(0));
        node.discover_sessions(&dir, SegmentId(0));

        // No neighbours.
        assert!(context(&node, &cfg, &dir, 15.0, &[]).is_none());

        // Zero inbound (a source).
        let neighbors = [(10.0, neighbor_buffer(&[0, 1, 2]))];
        assert!(context(&node, &cfg, &dir, 0.0, &neighbors).is_none());

        // Node already has everything its neighbours advertise.
        for i in 0..3u64 {
            node.buffer_mut().insert(SegmentId(i));
        }
        assert!(context(&node, &cfg, &dir, 15.0, &neighbors).is_none());
    }

    #[test]
    fn playback_gates_new_session_until_prepared() {
        let dir = switched_directory();
        let cfg = config();
        let mut node = PeerNode::new(1, &cfg, SegmentId(90));
        node.discover_sessions(&dir, SegmentId(100));
        for i in 90..=100u64 {
            node.buffer_mut().insert(SegmentId(i));
        }

        // First period: plays 90..=99 (10 segments) and stops at the gate.
        let played = node.advance_playback(&cfg, &dir);
        assert_eq!(played, 10);
        assert_eq!(node.id_play(), SegmentId(100));

        // Still gated: only one segment (100) of the required five held.
        let played = node.advance_playback(&cfg, &dir);
        assert_eq!(played, 0);

        for i in 101..=104u64 {
            node.buffer_mut().insert(SegmentId(i));
        }
        let played = node.advance_playback(&cfg, &dir);
        assert_eq!(played, 5, "gate lifted once the first Qs are present");
        assert_eq!(node.id_play(), SegmentId(105));
    }

    #[test]
    fn playback_does_not_start_without_q_consecutive() {
        let dir = switched_directory();
        let cfg = config();
        let mut node = PeerNode::new(1, &cfg, SegmentId(0));
        node.discover_sessions(&dir, SegmentId(5));
        node.buffer_mut().insert(SegmentId(0));
        node.buffer_mut().insert(SegmentId(2));
        assert_eq!(node.advance_playback(&cfg, &dir), 0);
        node.buffer_mut().insert(SegmentId(1));
        assert!(node.advance_playback(&cfg, &dir) > 0);
    }

    #[test]
    fn fractional_play_rate_accumulates_credit() {
        let dir = switched_directory();
        let mut cfg = config();
        cfg.play_rate = 0.5; // one segment every two periods
        let mut node = PeerNode::new(1, &cfg, SegmentId(0));
        node.discover_sessions(&dir, SegmentId(10));
        for i in 0..10u64 {
            node.buffer_mut().insert(SegmentId(i));
        }
        assert_eq!(node.advance_playback(&cfg, &dir), 0);
        assert_eq!(node.advance_playback(&cfg, &dir), 1);
        assert_eq!(node.advance_playback(&cfg, &dir), 0);
        assert_eq!(node.advance_playback(&cfg, &dir), 1);
    }
}
