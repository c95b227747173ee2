//! The scheduling contract.
//!
//! Once per scheduling period every node assembles a [`SchedulingContext`]
//! describing what it needs, what its neighbours can supply and where its
//! playback stands, then hands it to a [`SegmentScheduler`] — the paper's
//! Fast Switch Algorithm, the Normal Switch baseline, or any other policy —
//! which writes the ordered list of [`SegmentRequest`]s to issue this
//! period.  The gossip substrate (`fss-gossip`) builds the contexts.
//!
//! The context is flat: a per-call neighbour table ([`NeighbourInfo`]: peer,
//! rate `R(j)`, capacity `B`), one array of 8-byte [`SupplierInfo`] entries
//! (neighbour slot and buffer position `p_ij`) and, per candidate, a
//! [`SupplierSpan`] into it plus the two folds of its suppliers that the
//! priorities need: `R_i = max_j R_ij` (eq. 6) and the rarity product
//! `Π_j p_ij/B` (eq. 8).  Builders fill it with
//! [`push_neighbour`](SchedulingContext::push_neighbour), then
//! [`push_candidate`](SchedulingContext::push_candidate) for each
//! candidate, which folds eqs. 6 and 8 over the suppliers in the order
//! given; a one-pass builder appends the suppliers itself, folding them
//! into a [`SupplierFold`], and ends with
//! [`close_candidate`](SchedulingContext::close_candidate).  The system's
//! builder does that: a neighbour gets a row only at its first supplier hit
//! (a neighbour that supplies nothing has none), and each candidate's
//! suppliers follow neighbour order.  A peer therefore has one rate per
//! context, and a scheduler can keep per-neighbour state in a column
//! indexed by slot.

use crate::assign::SchedulerScratch;
use fss_overlay::PeerId;
use fss_sim::cast::narrow;
use std::fmt;

/// Identifier of one data segment, global across serial sources: the paper
/// sets `id_begin(S2) = id_end(S1) + 1`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SegmentId(pub u64);

impl SegmentId {
    /// The numeric id.
    #[inline]
    pub fn value(self) -> u64 {
        self.0
    }

    /// The id `n` positions later in the stream.
    #[inline]
    pub fn offset(self, n: u64) -> SegmentId {
        SegmentId(self.0 + n)
    }

    /// The next segment id.
    #[inline]
    pub fn next(self) -> SegmentId {
        SegmentId(self.0 + 1)
    }
}

impl fmt::Display for SegmentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Identifier of a streaming source session (0 = the first source).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SourceId(pub u32);

impl fmt::Display for SourceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0 + 1)
    }
}

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
/// neighbour table.  The system's builder lists only neighbours that supply
/// at least one candidate, in the order of their first supplier hit; the
/// row order is a label, never a tie-break.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighbourInfo {
    /// The neighbour.
    pub peer: PeerId,
    /// The neighbour's advertised sending rate `R(j)` in segments/second.
    pub rate: f64,
    /// The neighbour's buffer capacity `B` (`< 2¹⁶`, as the gossip
    /// layer's config validation and FIFO buffer require).
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
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True when the span names no supplier.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// One segment the node needs and could obtain this period.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateSegment {
    /// The segment id.
    pub id: SegmentId,
    /// Neighbours currently holding the segment (never empty in contexts
    /// the system builds); see [`SchedulingContext::suppliers_of`].
    pub suppliers: SupplierSpan,
    /// The maximum receiving rate `R_i = max_j R_ij` over the suppliers
    /// (eq. 6), folded from 0 in supplier order.
    pub max_rate: f64,
    /// The rarity `Π_j p_ij/B` over the suppliers (eq. 8), multiplied from
    /// 1 in supplier order (1 for no supplier).
    pub rarity: f64,
}

/// One supplier's factor of eq. 8, `p_ij / B` clamped to `[0, 1]` (1 for a
/// zero capacity): the probability that the segment is the next one the
/// supplier's FIFO buffer replaces.
#[inline]
pub fn replacement_fraction(position: usize, capacity: usize) -> f64 {
    if capacity == 0 {
        1.0
    } else {
        (position as f64 / capacity as f64).clamp(0.0, 1.0)
    }
}

/// The running folds of eqs. 6 and 8 over one candidate's suppliers, in
/// the order they are appended: the one-pass builder's accumulator, handed
/// to [`SchedulingContext::close_candidate`].
#[derive(Debug, Clone, Copy)]
pub struct SupplierFold {
    max_rate: f64,
    rarity: f64,
}

impl SupplierFold {
    /// The folds of an empty supplier set.
    pub const EMPTY: SupplierFold = SupplierFold {
        max_rate: 0.0,
        rarity: 1.0,
    };

    /// Folds in one supplier with rate `R(j)`, position `p_ij` and
    /// capacity `B`.
    #[inline]
    pub fn add(&mut self, rate: f64, position: u32, capacity: u32) {
        self.max_rate = f64::max(self.max_rate, rate);
        self.rarity *= replacement_fraction(position as usize, capacity as usize);
    }
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
#[derive(Debug, Clone, Default, PartialEq)]
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
    /// The node's neighbour table; [`SupplierInfo::slot`] indexes it.  A
    /// peer has at most one row.
    pub neighbours: Vec<NeighbourInfo>,
    /// Every candidate's suppliers, back to back; each candidate owns the
    /// [`SupplierSpan`] it names, in neighbour order.
    pub suppliers: Vec<SupplierInfo>,
    /// The segments the node needs and at least one neighbour can supply.
    pub candidates: Vec<CandidateSegment>,
}

impl SchedulingContext {
    /// Whole segments the node can receive this period (`⌊I·τ⌋`).
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "I and tau are validated non-negative, and float-to-int `as` saturates instead of wrapping"
    )]
    pub fn inbound_budget(&self) -> usize {
        (self.inbound_rate * self.tau_secs).floor() as usize
    }

    /// True when the node is aware of an in-progress source switch (it knows
    /// the new session and still needs old-source segments or has not
    /// finished the old playback).
    #[inline]
    pub fn switch_in_progress(&self) -> bool {
        self.new_session.is_some() && self.old_session.is_some()
    }

    /// Classifies a segment id against the (known) sessions.
    ///
    /// Ids at or beyond the new session's first segment are [`StreamClass::New`];
    /// everything else is [`StreamClass::Old`].
    #[inline]
    pub fn class_of(&self, id: SegmentId) -> StreamClass {
        match self.new_session {
            Some(new) if id >= new.first_segment => StreamClass::New,
            _ => StreamClass::Old,
        }
    }

    /// The suppliers of `candidate`.
    #[inline]
    pub fn suppliers_of(&self, candidate: &CandidateSegment) -> &[SupplierInfo] {
        let span = candidate.suppliers;
        &self.suppliers[span.start as usize..][..span.len()]
    }

    /// The neighbour-table row of `supplier`.
    #[inline]
    pub fn neighbour(&self, supplier: &SupplierInfo) -> &NeighbourInfo {
        &self.neighbours[supplier.slot as usize]
    }

    /// Appends a row to the neighbour table and returns its slot.
    ///
    /// # Panics
    /// Panics if `buffer_capacity` does not fit a `u32`.
    #[inline]
    pub fn push_neighbour(&mut self, peer: PeerId, rate: f64, buffer_capacity: usize) -> u32 {
        let slot = narrow(self.neighbours.len(), "neighbour slots fit u32");
        self.neighbours.push(NeighbourInfo {
            peer,
            rate,
            buffer_capacity: narrow(buffer_capacity, "buffer capacity fits u32"),
        });
        slot
    }

    /// Appends candidate `id` held by `suppliers`, folding eqs. 6 and 8
    /// over them in the order given.
    ///
    /// # Panics
    /// Panics if a supplier's slot is not in the neighbour table.
    pub fn push_candidate(
        &mut self,
        id: SegmentId,
        suppliers: impl IntoIterator<Item = SupplierInfo>,
    ) {
        let start = self.suppliers.len();
        self.suppliers.extend(suppliers);
        let mut fold = SupplierFold::EMPTY;
        for s in &self.suppliers[start..] {
            let row = &self.neighbours[s.slot as usize];
            fold.add(row.rate, s.buffer_position, row.buffer_capacity);
        }
        self.close_candidate(id, start, fold);
    }

    /// The one-pass builder's append: closes candidate `id` over the
    /// suppliers pushed onto [`suppliers`](Self::suppliers) since index
    /// `start`, whose folds are `fold` (each supplier added to
    /// [`SupplierFold::EMPTY`] in the order pushed, as
    /// [`push_candidate`](Self::push_candidate) does).
    ///
    /// # Panics
    /// Panics if `start` or the span's length does not fit a `u32`.
    #[inline]
    pub fn close_candidate(&mut self, id: SegmentId, start: usize, fold: SupplierFold) {
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
            max_rate: fold.max_rate,
            rarity: fold.rarity,
        });
    }

    /// Empties the neighbour table, the supplier array and the candidates,
    /// keeping their buffers.
    #[inline]
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

/// A pluggable segment-scheduling policy.
///
/// The system owns one [`SchedulerScratch`] per worker and passes it to
/// every [`schedule_into`](Self::schedule_into) call, so a policy keeps its
/// sort buffers and outcome vectors alive across nodes and periods: after
/// warm-up the scheduling pass performs no heap allocation.
pub trait SegmentScheduler: Send + Sync {
    /// Short policy name used in reports (e.g. `"fast-switch"`).
    fn name(&self) -> &'static str;

    /// Decides which segments to request from which suppliers this period,
    /// writing the requests into `out` (cleared first) and reusing
    /// `scratch` for any intermediate state.
    ///
    /// Implementations should write at most
    /// [`SchedulingContext::inbound_budget`] requests; the transfer layer
    /// enforces the budget regardless.
    fn schedule_into(
        &self,
        ctx: &SchedulingContext,
        scratch: &mut SchedulerScratch,
        out: &mut Vec<SegmentRequest>,
    );

    /// [`schedule_into`](Self::schedule_into) on a fresh scratch.  No policy
    /// overrides it; it goes once the repository benchmark's timing wrapper
    /// stops overriding it (ROADMAP item 1).
    fn schedule(&self, ctx: &SchedulingContext) -> Vec<SegmentRequest> {
        let mut out = Vec::new();
        self.schedule_into(ctx, &mut SchedulerScratch::default(), &mut out);
        out
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
    fn segment_id_arithmetic() {
        let s = SegmentId(10);
        assert_eq!(s.next(), SegmentId(11));
        assert_eq!(s.offset(5), SegmentId(15));
        assert_eq!(s.value(), 10);
        assert_eq!(format!("{s}"), "#10");
        assert_eq!(format!("{}", SourceId(0)), "S1");
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
        assert_eq!(c.max_rate, 20.0, "the idle neighbour is not a supplier");
        assert_eq!(ctx.candidates[0].max_rate, 12.0);

        ctx.clear_tables();
        assert!(ctx.neighbours.is_empty() && ctx.suppliers.is_empty());
        assert!(ctx.candidates.is_empty());
        assert_eq!(std::mem::size_of::<SupplierInfo>(), 8);
    }

    /// `push_candidate` folds eq. 6 as an explicit max from 0 and eq. 8 as
    /// the product of [`replacement_fraction`]s (the definition of
    /// `crate::priority::rarity`), both in the order the suppliers are
    /// given, bit for bit: idle rows, zero capacities, rates `≤ 0` and `+∞`
    /// included.
    #[test]
    fn push_candidate_folds_eqs_6_and_8() {
        let mut ctx = context();
        let rows = [
            (1, 12.0, 600),
            (2, 0.0, 600),
            (3, -4.5, 8),
            (4, f64::INFINITY, 600),
            (5, 7.25, 0),
            (6, 99.0, 600),
            (7, 3.0, 1),
        ];
        for &(peer, rate, capacity) in &rows {
            ctx.push_neighbour(peer, rate, capacity);
        }
        let supplier = |slot, buffer_position| SupplierInfo {
            slot,
            buffer_position,
        };
        // Slot 5 (rate 99) is idle: no candidate names it.
        let held: [&[SupplierInfo]; 8] = [
            &[],
            &[supplier(0, 1)],
            &[supplier(1, 600), supplier(2, 3)],
            &[supplier(2, 9), supplier(1, 17)],
            &[supplier(4, 5), supplier(0, 599)],
            &[supplier(3, 300), supplier(0, 150), supplier(6, 1)],
            &[supplier(6, 2), supplier(4, 0), supplier(2, 8)],
            &[
                supplier(0, 7),
                supplier(1, 11),
                supplier(2, 13),
                supplier(3, 17),
            ],
        ];
        for (id, suppliers) in (0..).zip(held) {
            ctx.push_candidate(SegmentId(id), suppliers.iter().copied());
        }
        for (c, suppliers) in ctx.candidates.iter().zip(held) {
            assert_eq!(ctx.suppliers_of(c), suppliers);
            let mut max_rate = 0.0;
            for s in suppliers {
                let rate = rows[s.slot as usize].1;
                if rate > max_rate {
                    max_rate = rate;
                }
            }
            assert_eq!(c.max_rate.to_bits(), max_rate.to_bits(), "{c:?}");
            let factors: Vec<f64> = suppliers
                .iter()
                .map(|s| replacement_fraction(s.buffer_position as usize, rows[s.slot as usize].2))
                .collect();
            let rarity = factors.iter().product::<f64>();
            assert_eq!(c.rarity.to_bits(), rarity.to_bits(), "{c:?}");
        }
        let folds: Vec<(f64, f64)> = ctx
            .candidates
            .iter()
            .map(|c| (c.max_rate, c.rarity))
            .collect();
        assert_eq!(folds[0], (0.0, 1.0), "no supplier");
        assert_eq!(folds[2], (0.0, 0.375), "rates ≤ 0 give R_i = 0");
        assert_eq!(folds[4], (12.0, 599.0 / 600.0), "a zero capacity gives 1");
        assert_eq!(folds[5], (f64::INFINITY, 0.125));
        assert_eq!(folds[6], (7.25, 1.0), "positions past B clamp to 1");
        assert!(folds.iter().all(|&(rate, _)| rate != 99.0), "idle row");
    }

    #[test]
    fn scheduler_trait_is_object_safe() {
        struct Nothing;
        impl SegmentScheduler for Nothing {
            fn name(&self) -> &'static str {
                "nothing"
            }
            fn schedule_into(
                &self,
                _ctx: &SchedulingContext,
                _scratch: &mut SchedulerScratch,
                out: &mut Vec<SegmentRequest>,
            ) {
                out.clear();
            }
        }
        let b: Box<dyn SegmentScheduler> = Box::new(Nothing);
        assert_eq!(b.name(), "nothing");
        assert!(b.schedule(&context()).is_empty());
    }
}
