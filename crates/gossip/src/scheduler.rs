//! Scheduling interface.
//!
//! Once per scheduling period every node assembles a [`SchedulingContext`]
//! describing what it needs, what its neighbours can supply and where its
//! playback stands, then hands it to a [`SegmentScheduler`] — the paper's
//! Fast Switch Algorithm, the Normal Switch baseline, or any other policy —
//! which returns the ordered list of [`SegmentRequest`]s to issue this
//! period.
//!
//! The context is flat: a per-call neighbour table ([`NeighbourInfo`]: peer,
//! rate `R(j)`, capacity `B`), one array of 8-byte [`SupplierInfo`] entries
//! (neighbour slot and buffer position `p_ij`) and a [`SupplierSpan`] into
//! it per candidate.  Builders fill it with
//! [`push_neighbour`](SchedulingContext::push_neighbour) for each
//! neighbour, then [`push_candidate`](SchedulingContext::push_candidate)
//! for each candidate; the system's own builder appends each candidate's
//! suppliers directly and closes the span in-crate.  A peer therefore has
//! one rate per context, and a scheduler can keep per-neighbour state in a
//! column indexed by slot.

use crate::cast::narrow;
use crate::segment::{SegmentId, SourceId};
use fss_overlay::PeerId;

/// Which stream a candidate segment belongs to, relative to an in-progress
/// source switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamClass {
    /// Segment of the old source `S1` (still required to finish its
    /// playback).
    Old,
    /// Segment of the new source `S2`.
    New,
}

/// One neighbour of the scheduling node: a row of the context's per-call
/// neighbour table.  Every neighbour gets a row, whether or not it holds a
/// candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighbourInfo {
    /// The neighbour.
    pub peer: PeerId,
    /// The neighbour's advertised sending rate `R(j)` in segments/second.
    pub rate: f64,
    /// The neighbour's buffer capacity `B` (`< 2¹⁶`, as
    /// [`GossipConfig::validate`](crate::GossipConfig::validate) and
    /// [`FifoBuffer::new`](crate::FifoBuffer::new) require).
    pub buffer_capacity: u32,
}

/// A neighbour able to supply one candidate segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupplierInfo {
    /// The supplier's slot in [`SchedulingContext::neighbours`].
    pub slot: u32,
    /// The segment's position in the neighbour's FIFO buffer, measured from
    /// the tail (`p_ij` of Table 2; 1 = newest).
    pub buffer_position: u32,
}

/// A candidate's suppliers: the range `start..start + len` of
/// [`SchedulingContext::suppliers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupplierSpan {
    /// Index of the first supplier.
    pub start: u32,
    /// Number of suppliers.
    pub len: u32,
}

impl SupplierSpan {
    /// The number of suppliers (`n_i` of Table 2).
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the span names no supplier.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One segment the node needs and could obtain this period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateSegment {
    /// The segment id.
    pub id: SegmentId,
    /// Neighbours currently holding the segment (never empty in contexts
    /// the system builds); see [`SchedulingContext::suppliers_of`].
    pub suppliers: SupplierSpan,
}

/// A view of one source session as known to the scheduling node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionView {
    /// The session identifier.
    pub id: SourceId,
    /// First segment id of the session.
    pub first_segment: SegmentId,
    /// Last segment id, if the node knows the session has ended.
    pub last_segment: Option<SegmentId>,
}

/// Everything a scheduler needs to decide this period's requests.
#[derive(Debug, Clone, PartialEq)]
pub struct SchedulingContext {
    /// Scheduling period `τ` in seconds.
    pub tau_secs: f64,
    /// Playback rate `p` in segments per second.
    pub play_rate: f64,
    /// The node's total inbound rate `I` in segments per second.
    pub inbound_rate: f64,
    /// The id of the segment being played (`id_play`); equals the next
    /// segment to play.
    pub id_play: SegmentId,
    /// Startup threshold `Q` (consecutive segments).
    pub startup_q: usize,
    /// New-source startup threshold `Qs`.
    pub new_source_qs: usize,
    /// The old source's session, when a switch is in progress or the node is
    /// still playing it.
    pub old_session: Option<SessionView>,
    /// The new source's session, once the node has discovered it.
    pub new_session: Option<SessionView>,
    /// `Q1`: undelivered segments of the old source still needed for its
    /// playback.
    pub q1: usize,
    /// `Q2`: undelivered segments among the first `Qs` of the new source.
    pub q2: usize,
    /// The node's neighbours, one row per neighbour in neighbour order;
    /// [`SupplierInfo::slot`] indexes it.
    pub neighbours: Vec<NeighbourInfo>,
    /// Every candidate's suppliers, back to back; each candidate owns the
    /// [`SupplierSpan`] it names, in neighbour order.
    pub suppliers: Vec<SupplierInfo>,
    /// The segments the node needs and at least one neighbour can supply.
    pub candidates: Vec<CandidateSegment>,
}

impl SchedulingContext {
    /// Whole segments the node can receive this period (`⌊I·τ⌋`).
    pub fn inbound_budget(&self) -> usize {
        (self.inbound_rate * self.tau_secs).floor() as usize
    }

    /// True when the node is aware of an in-progress source switch (it knows
    /// the new session and still needs old-source segments or has not
    /// finished the old playback).
    pub fn switch_in_progress(&self) -> bool {
        self.new_session.is_some() && self.old_session.is_some()
    }

    /// Classifies a segment id against the (known) sessions.
    ///
    /// Ids at or beyond the new session's first segment are [`StreamClass::New`];
    /// everything else is [`StreamClass::Old`].
    pub fn class_of(&self, id: SegmentId) -> StreamClass {
        match self.new_session {
            Some(new) if id >= new.first_segment => StreamClass::New,
            _ => StreamClass::Old,
        }
    }

    /// The suppliers of `candidate`.
    pub fn suppliers_of(&self, candidate: &CandidateSegment) -> &[SupplierInfo] {
        let span = candidate.suppliers;
        &self.suppliers[span.start as usize..][..span.len()]
    }

    /// The neighbour-table row of `supplier`.
    pub fn neighbour(&self, supplier: &SupplierInfo) -> &NeighbourInfo {
        &self.neighbours[supplier.slot as usize]
    }

    /// The maximum receiving rate `R_i = max_j R_ij` of `candidate` (eq. 6).
    pub fn max_rate(&self, candidate: &CandidateSegment) -> f64 {
        self.suppliers_of(candidate)
            .iter()
            .map(|s| self.neighbour(s).rate)
            .fold(0.0, f64::max)
    }

    /// Appends a row to the neighbour table and returns its slot.
    ///
    /// # Panics
    /// Panics if `buffer_capacity` does not fit a `u32`.
    pub fn push_neighbour(&mut self, peer: PeerId, rate: f64, buffer_capacity: usize) -> u32 {
        let slot = narrow(self.neighbours.len(), "neighbour slots fit u32");
        self.neighbours.push(NeighbourInfo {
            peer,
            rate,
            buffer_capacity: narrow(buffer_capacity, "buffer capacity fits u32"),
        });
        slot
    }

    /// Appends candidate `id` held by `suppliers`, whose slots must already
    /// be in the neighbour table.
    pub fn push_candidate(
        &mut self,
        id: SegmentId,
        suppliers: impl IntoIterator<Item = SupplierInfo>,
    ) {
        let start = self.suppliers.len();
        self.suppliers.extend(suppliers);
        self.close_candidate(id, start);
    }

    /// Appends candidate `id` held by the suppliers pushed onto
    /// [`suppliers`](Self::suppliers) since index `start`.
    pub(crate) fn close_candidate(&mut self, id: SegmentId, start: usize) {
        debug_assert!(
            self.suppliers[start..]
                .iter()
                .all(|s| (s.slot as usize) < self.neighbours.len()),
            "supplier slot outside the neighbour table"
        );
        self.candidates.push(CandidateSegment {
            id,
            suppliers: SupplierSpan {
                start: narrow(start, "supplier entries fit u32"),
                len: narrow(
                    self.suppliers.len() - start,
                    "suppliers per candidate fit u32",
                ),
            },
        });
    }

    /// Empties the neighbour table, the supplier array and the candidates,
    /// keeping their buffers.
    pub fn clear_tables(&mut self) {
        self.neighbours.clear();
        self.suppliers.clear();
        self.candidates.clear();
    }
}

/// One request the scheduler decided to issue this period.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentRequest {
    /// The requested segment.
    pub segment: SegmentId,
    /// The neighbour to request it from.
    pub supplier: PeerId,
}

/// Reusable, type-erased working memory handed to
/// [`SegmentScheduler::schedule_into`].
///
/// The system owns one scratch per worker and passes it to every scheduling
/// call, so a scheduler can keep sort buffers, hash maps and outcome vectors
/// alive across nodes and periods: after warm-up the scheduling pass performs
/// no heap allocation.  The slot is type-erased because each scheduler
/// implementation has its own scratch layout; the first call allocates it,
/// subsequent calls reuse it.
#[derive(Debug, Default)]
pub struct SchedulerScratch {
    slot: Option<Box<dyn std::any::Any + Send>>,
}

impl SchedulerScratch {
    /// Creates an empty scratch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The scheduler-specific scratch value, created on first use.
    pub fn get_or_default<T: Default + Send + 'static>(&mut self) -> &mut T {
        if !self.slot.as_ref().is_some_and(|s| s.is::<T>()) {
            self.slot = Some(Box::<T>::default());
        }
        self.slot
            .as_mut()
            .expect("slot populated above")
            .downcast_mut::<T>()
            .expect("type checked above")
    }
}

/// A pluggable segment-scheduling policy.
pub trait SegmentScheduler: Send + Sync {
    /// Short policy name used in reports (e.g. `"fast-switch"`).
    fn name(&self) -> &'static str;

    /// Decides which segments to request from which suppliers this period.
    ///
    /// Implementations should return at most [`SchedulingContext::inbound_budget`]
    /// requests; the transfer layer enforces the budget regardless.
    fn schedule(&self, ctx: &SchedulingContext) -> Vec<SegmentRequest>;

    /// Allocation-free variant used by the period hot path: writes the
    /// requests into `out` (cleared first), reusing `scratch` for any
    /// intermediate state.
    ///
    /// The default implementation simply delegates to
    /// [`schedule`](Self::schedule); performance-sensitive schedulers
    /// override it to reuse buffers.  Both variants must produce identical
    /// requests for identical contexts.
    fn schedule_into(
        &self,
        ctx: &SchedulingContext,
        scratch: &mut SchedulerScratch,
        out: &mut Vec<SegmentRequest>,
    ) {
        let _ = scratch;
        out.clear();
        out.extend(self.schedule(ctx));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view(id: u32, first: u64, last: Option<u64>) -> SessionView {
        SessionView {
            id: SourceId(id),
            first_segment: SegmentId(first),
            last_segment: last.map(SegmentId),
        }
    }

    fn context() -> SchedulingContext {
        SchedulingContext {
            tau_secs: 1.0,
            play_rate: 10.0,
            inbound_rate: 15.9,
            id_play: SegmentId(100),
            startup_q: 10,
            new_source_qs: 50,
            old_session: Some(view(0, 0, Some(199))),
            new_session: Some(view(1, 200, None)),
            q1: 20,
            q2: 50,
            neighbours: vec![],
            suppliers: vec![],
            candidates: vec![],
        }
    }

    #[test]
    fn inbound_budget_floors() {
        let ctx = context();
        assert_eq!(ctx.inbound_budget(), 15);
        let mut half = ctx.clone();
        half.tau_secs = 0.5;
        assert_eq!(half.inbound_budget(), 7);
    }

    #[test]
    fn class_of_uses_new_session_boundary() {
        let ctx = context();
        assert_eq!(ctx.class_of(SegmentId(199)), StreamClass::Old);
        assert_eq!(ctx.class_of(SegmentId(200)), StreamClass::New);
        assert_eq!(ctx.class_of(SegmentId(500)), StreamClass::New);

        let mut no_switch = ctx;
        no_switch.new_session = None;
        assert_eq!(no_switch.class_of(SegmentId(500)), StreamClass::Old);
        assert!(!no_switch.switch_in_progress());
    }

    #[test]
    fn switch_detection() {
        assert!(context().switch_in_progress());
        let mut ctx = context();
        ctx.old_session = None;
        assert!(!ctx.switch_in_progress());
    }

    #[test]
    fn candidate_helpers() {
        let mut ctx = context();
        let one = ctx.push_neighbour(1, 12.0, 600);
        let idle = ctx.push_neighbour(7, 30.0, 600);
        let two = ctx.push_neighbour(2, 20.0, 600);
        assert_eq!((one, idle, two), (0, 1, 2));
        let supplier = |slot, buffer_position| SupplierInfo {
            slot,
            buffer_position,
        };
        ctx.push_candidate(SegmentId(41), [supplier(one, 3)]);
        ctx.push_candidate(SegmentId(42), [supplier(one, 10), supplier(two, 500)]);
        let c = ctx.candidates[1];
        assert_eq!(c.suppliers, SupplierSpan { start: 1, len: 2 });
        assert_eq!(c.suppliers.len(), 2);
        assert_eq!(ctx.suppliers_of(&c)[1], supplier(two, 500));
        assert_eq!(ctx.neighbour(&ctx.suppliers_of(&c)[1]).peer, 2);
        assert_eq!(
            ctx.max_rate(&c),
            20.0,
            "the idle neighbour is not a supplier"
        );
        assert_eq!(ctx.max_rate(&ctx.candidates[0]), 12.0);

        ctx.clear_tables();
        assert!(ctx.neighbours.is_empty() && ctx.suppliers.is_empty());
        assert!(ctx.candidates.is_empty());
        assert_eq!(std::mem::size_of::<SupplierInfo>(), 8);
    }

    #[test]
    fn scheduler_trait_is_object_safe() {
        struct Nothing;
        impl SegmentScheduler for Nothing {
            fn name(&self) -> &'static str {
                "nothing"
            }
            fn schedule(&self, _ctx: &SchedulingContext) -> Vec<SegmentRequest> {
                Vec::new()
            }
        }
        let b: Box<dyn SegmentScheduler> = Box::new(Nothing);
        assert_eq!(b.name(), "nothing");
        assert!(b.schedule(&context()).is_empty());
    }
}
