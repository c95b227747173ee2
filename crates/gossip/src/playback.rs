//! Per-node playback state machine.
//!
//! A node starts playing a stream once `Q` consecutive segments from its join
//! point have been gathered (§3).  Playback then consumes `p` segments per
//! second in id order, stalling (not skipping) when the next segment is
//! missing.  Playback of a *new* source is additionally gated: it may not
//! start before the old stream has been played to its end **and** the first
//! `Qs` segments of the new stream are all present — the caller expresses the
//! gate through the `limit` argument of [`PlaybackState::advance`].

use crate::buffer::FifoBuffer;
use fss_core::SegmentId;

/// Statistics and position of one node's playback.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaybackState {
    join_point: SegmentId,
    next_play: SegmentId,
    started: bool,
    /// Total segments played.
    played: u64,
    /// Play opportunities lost because the next segment was missing or gated.
    stalls: u64,
}

impl PlaybackState {
    /// Creates a playback state that will start from `join_point`.
    pub fn new(join_point: SegmentId) -> Self {
        PlaybackState {
            join_point,
            next_play: join_point,
            started: false,
            played: 0,
            stalls: 0,
        }
    }

    /// The segment the node will play next (equals the paper's `id_play` once
    /// playback has started).
    pub fn next_play(&self) -> SegmentId {
        self.next_play
    }

    /// The node's join point (first segment it intends to play).
    pub fn join_point(&self) -> SegmentId {
        self.join_point
    }

    /// Whether playback has started.
    pub fn has_started(&self) -> bool {
        self.started
    }

    /// Total segments played so far.
    pub fn played(&self) -> u64 {
        self.played
    }

    /// Play opportunities lost to missing or gated segments.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Moves the join point (used for churn joiners that "follow their
    /// neighbors' current steps").  Only allowed before playback starts.
    pub fn rejoin_at(&mut self, join_point: SegmentId) {
        if !self.started {
            self.join_point = join_point;
            self.next_play = join_point;
        }
    }

    /// Attempts the initial startup: playback starts once `startup_q`
    /// consecutive segments from the join point are present.  Returns `true`
    /// if playback started (now or earlier).
    pub fn try_start(&mut self, buffer: &FifoBuffer, startup_q: usize) -> bool {
        if !self.started && buffer.contiguous_run_from(self.join_point) >= startup_q {
            self.started = true;
        }
        self.started
    }

    /// Plays up to `budget` segments from the buffer in id order.
    ///
    /// `limit` is an exclusive upper bound: segments with `id >= limit` are
    /// not played even if present (the caller uses this to gate a new source
    /// whose startup condition is not yet satisfied).  Returns the number of
    /// segments actually played; the shortfall is recorded as stalls.
    pub fn advance(&mut self, buffer: &FifoBuffer, budget: u64, limit: Option<SegmentId>) -> u64 {
        if !self.started {
            return 0;
        }
        let mut played_now = 0;
        while played_now < budget {
            if let Some(limit) = limit {
                if self.next_play >= limit {
                    break;
                }
            }
            if !buffer.contains(self.next_play) {
                break;
            }
            self.next_play = self.next_play.next();
            self.played += 1;
            played_now += 1;
        }
        self.stalls += budget - played_now;
        played_now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn buffer_with(ids: &[u64]) -> FifoBuffer {
        let mut b = FifoBuffer::new(600);
        for &i in ids {
            b.insert(SegmentId(i));
        }
        b
    }

    #[test]
    fn startup_requires_q_consecutive_segments() {
        let mut p = PlaybackState::new(SegmentId(0));
        assert!(!p.has_started());

        // 9 consecutive: not enough for Q = 10.
        let b = buffer_with(&(0..9).collect::<Vec<_>>());
        assert!(!p.try_start(&b, 10));

        // A gap at 5 breaks the run even with many segments.
        let b = buffer_with(&[0, 1, 2, 3, 4, 6, 7, 8, 9, 10, 11, 12]);
        assert!(!p.try_start(&b, 10));

        let b = buffer_with(&(0..10).collect::<Vec<_>>());
        assert!(p.try_start(&b, 10));
        assert!(p.has_started());
        // Idempotent.
        assert!(p.try_start(&FifoBuffer::new(10), 10));
    }

    #[test]
    fn advance_plays_in_order_and_stalls_on_gaps() {
        let mut p = PlaybackState::new(SegmentId(0));
        let b = buffer_with(&[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12]);
        assert!(p.try_start(&b, 10));

        assert_eq!(p.advance(&b, 10, None), 10);
        assert_eq!(p.next_play(), SegmentId(10));
        assert_eq!(p.played(), 10);
        assert_eq!(p.stalls(), 0);

        // 10 is present, 11 missing: plays 1, stalls 9.
        assert_eq!(p.advance(&b, 10, None), 1);
        assert_eq!(p.next_play(), SegmentId(11));
        assert_eq!(p.stalls(), 9);

        // Entirely stalled.
        assert_eq!(p.advance(&b, 5, None), 0);
        assert_eq!(p.stalls(), 14);
    }

    #[test]
    fn advance_respects_limit_gate() {
        let mut p = PlaybackState::new(SegmentId(0));
        let b = buffer_with(&(0..30).collect::<Vec<_>>());
        assert!(p.try_start(&b, 10));

        // Old stream ends at 19; the new source (starting at 20) is gated.
        assert_eq!(p.advance(&b, 100, Some(SegmentId(20))), 20);
        assert_eq!(p.next_play(), SegmentId(20));

        // Gate lifted: playback continues.
        assert_eq!(p.advance(&b, 100, None), 10);
        assert_eq!(p.next_play(), SegmentId(30));
    }

    #[test]
    fn no_playback_before_start() {
        let mut p = PlaybackState::new(SegmentId(5));
        let b = buffer_with(&[5, 6, 7]);
        assert_eq!(p.advance(&b, 10, None), 0);
        assert_eq!(p.played(), 0);
        assert_eq!(p.stalls(), 0);
    }

    #[test]
    fn rejoin_moves_join_point_only_before_start() {
        let mut p = PlaybackState::new(SegmentId(0));
        p.rejoin_at(SegmentId(100));
        assert_eq!(p.join_point(), SegmentId(100));
        assert_eq!(p.next_play(), SegmentId(100));

        let b = buffer_with(&(100..110).collect::<Vec<_>>());
        assert!(p.try_start(&b, 10));
        p.rejoin_at(SegmentId(0));
        assert_eq!(p.join_point(), SegmentId(100), "rejoin ignored after start");
    }

    #[test]
    fn zero_budget_never_stalls() {
        let mut p = PlaybackState::new(SegmentId(0));
        let b = buffer_with(&(0..10).collect::<Vec<_>>());
        p.try_start(&b, 10);
        assert_eq!(p.advance(&b, 0, None), 0);
        assert_eq!(p.stalls(), 0);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        /// played + stalls always equals the total budget offered after start,
        /// and next_play never exceeds the limit.
        #[test]
        fn prop_budget_accounting(
            ids in proptest::collection::btree_set(0u64..100, 10..80),
            budgets in proptest::collection::vec(0u64..20, 1..10),
            limit in 0u64..120,
        ) {
            let ids: Vec<u64> = ids.into_iter().collect();
            let b = buffer_with(&ids);
            let mut p = PlaybackState::new(SegmentId(ids[0]));
            if !p.try_start(&b, 5) {
                return Ok(());
            }
            let mut offered = 0;
            for budget in budgets {
                offered += budget;
                p.advance(&b, budget, Some(SegmentId(limit)));
                proptest::prop_assert!(p.next_play() <= SegmentId(limit.max(ids[0])));
            }
            proptest::prop_assert_eq!(p.played() + p.stalls(), offered);
        }
    }
}
