//! Per-peer protocol rules.
//!
//! A peer's state is its buffer, its playback state, its playback credit
//! and the count of serial sessions it has *discovered* (§3: "a node does
//! not know the source switch process until it discovers data segments of
//! a new source in its neighbors").  That state lives as columns of the
//! sharded [`PeerStore`](crate::store::PeerStore); the functions here are
//! the one implementation of the rules over it, called by the store's
//! [`PeerRef`](crate::store::PeerRef) / [`PeerMut`](crate::store::PeerMut)
//! views, the scheduling pass and the fused period walk.  The scheduling
//! context handed to the switch algorithm each period is built by
//! [`WorkerScratch::build_context`](crate::scratch::WorkerScratch::build_context).

use crate::buffer::FifoBuffer;
use crate::config::GossipConfig;
use crate::playback::PlaybackState;
use crate::segment::{Session, SessionDirectory};
use fss_core::SegmentId;

/// Discovers sessions: a peer learns every session whose first segment is
/// at or below `observed_max`, in serial order.  Sources call this with
/// their own session's first segment when they start emitting.
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

/// The sessions a peer that has discovered `known_sessions` of them knows.
pub(crate) fn known_slice(known_sessions: usize, directory: &SessionDirectory) -> &[Session] {
    &directory.sessions()[..known_sessions.min(directory.len())]
}

/// Undelivered segments of `session` that a peer still needs, i.e. ids in
/// `[max(id_play, first), end]` missing from its buffer.  `end` falls back
/// to `fallback_end` for a live session.
#[expect(
    clippy::cast_possible_truncation,
    reason = "u64 to usize never narrows: the crate root asserts 64-bit usize"
)]
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

/// `Q2` for a new session: how many of its first `Qs` segments are still
/// missing.
pub(crate) fn q2_for(buffer: &FifoBuffer, session: &Session, qs: usize) -> usize {
    let first = session.first_segment;
    let last = first.offset(qs as u64 - 1);
    qs - buffer.count_in_range(first, last)
}

/// Advances playback by one period and returns the number of segments
/// played (the known-session prefix is resolved by the caller).
///
/// Playback starts after `Q` consecutive segments from the join point; a
/// next session is gated until all of its first `Qs` segments are present
/// (and, implicitly, until the previous stream has been fully played —
/// playback is sequential).
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
    #[expect(
        clippy::cast_possible_truncation,
        reason = "play_credit is non-negative, and float-to-int `as` saturates instead of wrapping"
    )]
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scratch::{Outbound, WorkerScratch};
    use crate::store::PeerStore;
    use fss_core::SchedulingContext;
    use fss_overlay::PeerId;

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

    /// A store of fresh peers `0..=node`, peer `node` joining at
    /// `join_point`.
    fn store_with(node: PeerId, cfg: &GossipConfig, join_point: SegmentId) -> PeerStore {
        let mut store = PeerStore::new(64);
        for _ in 0..=node {
            store.push_peer(cfg.buffer_capacity, true, 0);
        }
        store.peer_mut(node).rejoin_at(join_point);
        store
    }

    /// `node`'s scheduling context from the production builder, with the
    /// neighbours `(outbound rate, buffer)` appended to the store.
    fn context(
        store: &mut PeerStore,
        node: PeerId,
        cfg: &GossipConfig,
        dir: &SessionDirectory,
        inbound: f64,
        neighbors: &[(f64, FifoBuffer)],
    ) -> Option<SchedulingContext> {
        let mut ids = Vec::new();
        for (_, buffer) in neighbors {
            let id = store.push_peer(cfg.buffer_capacity, true, 0);
            *store.buffer_mut(id) = buffer.clone();
            ids.push(id);
        }
        let mut outbound = vec![Outbound::default(); store.len()];
        for (&id, (rate, _)) in ids.iter().zip(neighbors) {
            outbound[id as usize].rate = *rate;
        }
        let max_advertised = neighbors
            .iter()
            .filter_map(|(_, buffer)| buffer.max_id())
            .max()
            .unwrap_or(SegmentId(0));
        let mut scratch = WorkerScratch::default();
        let store = &*store;
        scratch
            .build_context(
                store.peer(node),
                cfg,
                dir,
                inbound,
                &ids,
                store,
                &outbound,
                store.peer(node).known_sessions(),
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
        let mut store = store_with(5, &cfg, SegmentId(0));
        assert_eq!(store.peer(5).known_sessions(), 0);

        store.peer_mut(5).discover_sessions(&dir, SegmentId(10));
        assert_eq!(store.peer(5).known_sessions(), 1);
        assert_eq!(known_slice(store.peer(5).known_sessions(), &dir).len(), 1);

        // Seeing a segment of S2 reveals the switch (and hence S1's end).
        store.peer_mut(5).discover_sessions(&dir, SegmentId(100));
        assert_eq!(store.peer(5).known_sessions(), 2);
    }

    #[test]
    fn undelivered_and_q2_counts() {
        let dir = switched_directory();
        let cfg = config();
        let mut store = store_with(1, &cfg, SegmentId(0));
        let mut node = store.peer_mut(1);
        node.discover_sessions(&dir, SegmentId(100));
        for i in 0..95u64 {
            node.buffer_mut().insert(SegmentId(i));
        }
        node.buffer_mut().insert(SegmentId(101));

        let s1 = &dir.sessions()[0];
        let s2 = &dir.sessions()[1];
        // Missing 95..=99 of S1.
        assert_eq!(store.peer(1).undelivered_in_session(s1, SegmentId(99)), 5);
        // Of the first 5 segments of S2 (100..=104) only 101 is held.
        assert_eq!(store.peer(1).q2_for(s2, 5), 4);
        for i in 100..105u64 {
            store.buffer_mut(1).insert(SegmentId(i));
        }
        assert_eq!(store.peer(1).q2_for(s2, 5), 0, "prepared for S2");
    }

    #[test]
    fn context_classifies_old_and_new_candidates() {
        let dir = switched_directory();
        let cfg = config();
        let mut store = store_with(1, &cfg, SegmentId(0));
        for i in 0..90u64 {
            store.buffer_mut(1).insert(SegmentId(i));
        }
        store.peer_mut(1).discover_sessions(&dir, SegmentId(105));

        let neighbors = [
            (12.0, neighbor_buffer(&(80..100).collect::<Vec<_>>())),
            (20.0, neighbor_buffer(&(95..106).collect::<Vec<_>>())),
        ];

        let ctx = context(&mut store, 1, &cfg, &dir, 15.0, &neighbors).expect("has candidates");
        assert!(ctx.switch_in_progress());
        assert_eq!(ctx.q1, 10, "missing 90..=99 of S1");
        assert_eq!(ctx.q2, 5, "none of 100..=104 held");
        assert_eq!(ctx.inbound_budget(), 15);

        // Candidates 90..=99 (old) and 100..=105 (new), all with suppliers.
        assert_eq!(ctx.candidates.len(), 16);
        let old_count = ctx
            .candidates
            .iter()
            .filter(|c| ctx.class_of(c.id) == fss_core::StreamClass::Old)
            .count();
        assert_eq!(old_count, 10);
        // Segment 97 is held by both neighbours.
        let c97 = ctx
            .candidates
            .iter()
            .find(|c| c.id == SegmentId(97))
            .unwrap();
        assert_eq!(c97.suppliers.len(), 2);
        assert_eq!(c97.max_rate, 20.0);
    }

    #[test]
    fn context_is_none_without_needs_or_neighbors() {
        let dir = switched_directory();
        let cfg = config();
        let mut store = store_with(1, &cfg, SegmentId(0));
        store.peer_mut(1).discover_sessions(&dir, SegmentId(0));

        // No neighbours.
        assert!(context(&mut store, 1, &cfg, &dir, 15.0, &[]).is_none());

        // Zero inbound (a source).
        let neighbors = [(10.0, neighbor_buffer(&[0, 1, 2]))];
        assert!(context(&mut store, 1, &cfg, &dir, 0.0, &neighbors).is_none());

        // Node already has everything its neighbours advertise.
        for i in 0..3u64 {
            store.buffer_mut(1).insert(SegmentId(i));
        }
        assert!(context(&mut store, 1, &cfg, &dir, 15.0, &neighbors).is_none());
    }

    #[test]
    fn playback_gates_new_session_until_prepared() {
        let dir = switched_directory();
        let cfg = config();
        let mut store = store_with(1, &cfg, SegmentId(90));
        let mut node = store.peer_mut(1);
        node.discover_sessions(&dir, SegmentId(100));
        for i in 90..=100u64 {
            node.buffer_mut().insert(SegmentId(i));
        }

        // First period: plays 90..=99 (10 segments) and stops at the gate.
        let played = node.advance_playback(&cfg, &dir);
        assert_eq!(played, 10);
        assert_eq!(node.playback().next_play(), SegmentId(100));

        // Still gated: only one segment (100) of the required five held.
        let played = node.advance_playback(&cfg, &dir);
        assert_eq!(played, 0);

        for i in 101..=104u64 {
            node.buffer_mut().insert(SegmentId(i));
        }
        let played = node.advance_playback(&cfg, &dir);
        assert_eq!(played, 5, "gate lifted once the first Qs are present");
        assert_eq!(store.peer(1).id_play(), SegmentId(105));
    }

    #[test]
    fn playback_does_not_start_without_q_consecutive() {
        let dir = switched_directory();
        let cfg = config();
        let mut store = store_with(1, &cfg, SegmentId(0));
        let mut node = store.peer_mut(1);
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
        let mut store = store_with(1, &cfg, SegmentId(0));
        let mut node = store.peer_mut(1);
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
