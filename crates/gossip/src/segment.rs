//! Serial source sessions.
//!
//! Segment and source identifiers belong to the scheduling contract
//! ([`fss_core::SegmentId`], [`fss_core::SourceId`]).  They are **global**:
//! the paper sets `id_begin(S2) = id_end(S1) + 1`, i.e. the new source
//! continues the id space of the old one, which is also what makes a single
//! 620-bit buffer map able to describe availability across a source switch.

use fss_core::{SegmentId, SourceId};
use fss_overlay::PeerId;

/// One serial streaming session: a source peer emitting a contiguous range of
/// global segment ids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Session {
    /// The session / source identifier.
    pub id: SourceId,
    /// The overlay peer acting as the source.
    pub source_peer: PeerId,
    /// First segment id of the session (`id_begin`).
    pub first_segment: SegmentId,
    /// Last segment id (`id_end`), `None` while the session is still live.
    pub last_segment: Option<SegmentId>,
    /// Simulation second at which the source started emitting.
    pub start_secs: f64,
}

impl Session {
    /// True when `segment` belongs to this session.
    pub fn contains(&self, segment: SegmentId) -> bool {
        if segment < self.first_segment {
            return false;
        }
        match self.last_segment {
            Some(last) => segment <= last,
            None => true,
        }
    }

    /// Number of segments emitted so far given the current head (exclusive).
    pub fn emitted(&self, next_to_emit: SegmentId) -> u64 {
        next_to_emit
            .value()
            .saturating_sub(self.first_segment.value())
    }

    /// True when the source has stopped emitting.
    pub fn is_closed(&self) -> bool {
        self.last_segment.is_some()
    }
}

/// Registry of all sessions, in serial order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionDirectory {
    sessions: Vec<Session>,
}

impl SessionDirectory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// All sessions in serial order.
    pub fn sessions(&self) -> &[Session] {
        &self.sessions
    }

    /// Number of sessions ever started.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// True when no session has been started yet.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }

    /// The currently live (un-closed) session, if any.
    pub fn live(&self) -> Option<&Session> {
        self.sessions.iter().find(|s| !s.is_closed())
    }

    /// Looks a session up by id.
    pub fn get(&self, id: SourceId) -> Option<&Session> {
        self.sessions.iter().find(|s| s.id == id)
    }

    /// Starts a new session from `source_peer` at `start_secs`.
    ///
    /// The previous live session (if any) is closed at `previous_end`, and the
    /// new session starts at `previous_end + 1` (the paper's
    /// `id_begin = id_end + 1` rule).  For the very first session the stream
    /// starts at segment 0.
    ///
    /// # Panics
    /// Panics if `previous_end` is provided but there is no live session, or
    /// if a live session exists and `previous_end` is `None`.
    pub fn start_session(
        &mut self,
        source_peer: PeerId,
        start_secs: f64,
        previous_end: Option<SegmentId>,
    ) -> SourceId {
        let first_segment = match (
            self.sessions.iter_mut().find(|s| !s.is_closed()),
            previous_end,
        ) {
            (Some(live), Some(end)) => {
                assert!(
                    live.contains(end) || end.value() + 1 == live.first_segment.value(),
                    "previous_end {end} outside live session"
                );
                live.last_segment = Some(end);
                end.next()
            }
            (None, None) => SegmentId(0),
            (Some(_), None) => panic!("a live session exists; its end id must be provided"),
            (None, Some(_)) => panic!("no live session to close"),
        };
        let id = SourceId(crate::cast::narrow(
            self.sessions.len(),
            "session count fits a u32 id",
        ));
        self.sessions.push(Session {
            id,
            source_peer,
            first_segment,
            last_segment: None,
            start_secs,
        });
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_containment() {
        let open = Session {
            id: SourceId(0),
            source_peer: 0,
            first_segment: SegmentId(100),
            last_segment: None,
            start_secs: 0.0,
        };
        assert!(!open.contains(SegmentId(99)));
        assert!(open.contains(SegmentId(100)));
        assert!(open.contains(SegmentId(1_000_000)));
        assert!(!open.is_closed());
        assert_eq!(open.emitted(SegmentId(130)), 30);

        let closed = Session {
            last_segment: Some(SegmentId(199)),
            ..open
        };
        assert!(closed.contains(SegmentId(199)));
        assert!(!closed.contains(SegmentId(200)));
        assert!(closed.is_closed());
    }

    #[test]
    fn directory_serial_switch() {
        let mut dir = SessionDirectory::new();
        assert!(dir.is_empty());
        let s1 = dir.start_session(7, 0.0, None);
        assert_eq!(s1, SourceId(0));
        assert_eq!(dir.live().unwrap().first_segment, SegmentId(0));

        // S1 emitted segments 0..=499, then S2 takes over.
        let s2 = dir.start_session(9, 500.0, Some(SegmentId(499)));
        assert_eq!(s2, SourceId(1));
        assert_eq!(dir.len(), 2);
        let old = dir.get(s1).unwrap();
        assert_eq!(old.last_segment, Some(SegmentId(499)));
        let new = dir.get(s2).unwrap();
        assert_eq!(new.first_segment, SegmentId(500));
        assert!(dir.live().unwrap().id == s2);

        assert_eq!(dir.sessions().len(), 2);
    }

    #[test]
    #[should_panic(expected = "live session")]
    fn switching_without_end_id_panics() {
        let mut dir = SessionDirectory::new();
        dir.start_session(1, 0.0, None);
        dir.start_session(2, 1.0, None);
    }

    #[test]
    #[should_panic(expected = "no live session")]
    fn closing_nonexistent_session_panics() {
        let mut dir = SessionDirectory::new();
        dir.start_session(1, 0.0, Some(SegmentId(10)));
    }
}
