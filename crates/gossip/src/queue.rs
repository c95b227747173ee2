//! The arrival calendar: the time-ordered queue of the event-mode network's
//! in-flight messages.
//!
//! Messages are keyed by arrival time and pop in (arrival time, send order)
//! order — the order of a `(time, sequence)` min-heap — but, because every
//! message is sent at a period boundary, the calendar only ever orders the
//! arrivals of one period at a time (see `docs/network.md`).

use crate::transfer::DeliveredSegment;
use fss_sim::SimTime;
use std::collections::VecDeque;

/// `τ` up to this many milliseconds orders a bucket by counting sort; a
/// longer period sorts by comparison rather than keep a table that large.
const COUNTING_SORT_MAX_TAU_MS: u64 = 1 << 16;

/// The arrivals due inside one period, in send order.
#[derive(Debug, Default)]
struct Bucket {
    /// Arrivals exactly at the period's boundary (offset 0).
    at_boundary: Vec<DeliveredSegment>,
    /// Later arrivals as (millisecond offset inside the period, message).
    inside: Vec<(u64, DeliveredSegment)>,
}

impl Bucket {
    fn add(&mut self, offset: u64, msg: DeliveredSegment) {
        if offset == 0 {
            self.at_boundary.push(msg);
        } else {
            self.inside.push((offset, msg));
        }
    }
}

/// The in-flight messages of the event-mode network: a ring of buckets,
/// one per arrival period, drained at period boundaries.
///
/// Every transfer is sent at a boundary, so arrivals only need ordering
/// within the period they land in.  [`push`](Self::push) appends to that
/// period's bucket in O(1); a drain takes whole buckets from the front,
/// orders each with a stable counting sort on the offset — arrival time
/// first, then send order, exactly a `(time, sequence)` min-heap's pop
/// order — and hands them out as one slice.  Drained buckets rotate to the
/// back of the ring with their capacity, so steady state reuses storage.
/// Arrivals beyond the ring's horizon wait in send order in an overflow
/// list and join their bucket once it enters the ring (which is before any
/// later push can reach it, so send order still holds).
#[derive(Debug)]
pub(crate) struct ArrivalCalendar {
    /// The scheduling period `τ` in millisecond ticks (≥ 1).
    tau_ms: u64,
    /// Period index of `ring[0]`; every earlier period is drained.
    base: u64,
    /// One bucket per period `base..base + ring.len()`.
    ring: VecDeque<Bucket>,
    /// Arrivals at or beyond period `base + ring.len()`, in send order.
    beyond: Vec<(SimTime, DeliveredSegment)>,
    /// Messages in flight (ring and overflow).
    len: usize,
    /// The last drain's arrivals in arrival order (reused).
    drained: Vec<DeliveredSegment>,
    /// Counting-sort table, one slot per millisecond of `τ` (empty when
    /// `τ` exceeds [`COUNTING_SORT_MAX_TAU_MS`]).
    counts: Vec<usize>,
}

impl ArrivalCalendar {
    /// A calendar of `horizon` (at least one) period buckets, each
    /// pre-reserved for `per_period` arrivals.
    pub(crate) fn new(tau_ms: u64, horizon: usize, per_period: usize) -> Self {
        let ring = (0..horizon.max(1))
            .map(|_| Bucket {
                at_boundary: Vec::new(),
                inside: Vec::with_capacity(per_period),
            })
            .collect();
        let counts = if tau_ms <= COUNTING_SORT_MAX_TAU_MS {
            vec![0; tau_ms as usize]
        } else {
            Vec::new()
        };
        ArrivalCalendar {
            tau_ms,
            base: 0,
            ring,
            beyond: Vec::new(),
            len: 0,
            drained: Vec::with_capacity(per_period),
            counts,
        }
    }

    /// The scheduling period `τ` in milliseconds.
    pub(crate) fn tau_ms(&self) -> u64 {
        self.tau_ms
    }

    /// Messages in flight.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Entries reserved across the ring's buckets (both lists of each).
    #[cfg(test)]
    pub(crate) fn reserved_entries(&self) -> usize {
        self.ring
            .iter()
            .map(|b| b.at_boundary.capacity() + b.inside.capacity())
            .sum()
    }

    /// Schedules `msg` to arrive at `time`.
    ///
    /// # Panics
    /// Panics if `time` lies in a period that was already drained.
    pub(crate) fn push(&mut self, time: SimTime, msg: DeliveredSegment) {
        let period = time.as_millis() / self.tau_ms;
        assert!(
            period >= self.base,
            "arrival at {time:?} precedes the drained horizon (period {})",
            self.base
        );
        self.len += 1;
        match self.ring.get_mut(bucket_index(period - self.base)) {
            Some(bucket) => bucket.add(time.as_millis() % self.tau_ms, msg),
            None => self.beyond.push((time, msg)),
        }
    }

    /// Removes every message due before the boundary of `period` — and,
    /// when `inclusive`, also those due exactly at it — and returns them in
    /// (arrival time, send order) order.
    pub(crate) fn drain(&mut self, period: u64, inclusive: bool) -> &[DeliveredSegment] {
        self.drained.clear();
        while self.base < period {
            if self.len == self.beyond.len() {
                // The ring is empty: jump to the earliest overflow period,
                // or straight to `period`.
                let next = self
                    .beyond
                    .iter()
                    .map(|&(t, _)| t.as_millis() / self.tau_ms)
                    .min()
                    .map_or(period, |p| p.min(period));
                self.base = next;
                self.admit_beyond();
                continue;
            }
            let bucket = &mut self.ring[0];
            self.drained.extend_from_slice(&bucket.at_boundary);
            bucket.at_boundary.clear();
            sort_into(&mut bucket.inside, &mut self.counts, &mut self.drained);
            bucket.inside.clear();
            self.ring.rotate_left(1);
            self.base += 1;
            self.admit_beyond();
        }
        if inclusive && self.base == period {
            let front = &mut self.ring[0].at_boundary;
            self.drained.extend_from_slice(front);
            front.clear();
        }
        self.len -= self.drained.len();
        &self.drained
    }

    /// Arrival time of the earliest in-flight message, if any.
    pub(crate) fn next_arrival(&self) -> Option<SimTime> {
        let in_ring = self.ring.iter().enumerate().find_map(|(i, b)| {
            let first = if b.at_boundary.is_empty() {
                b.inside.iter().map(|&(offset, _)| offset).min()?
            } else {
                0
            };
            Some((self.base + i as u64) * self.tau_ms + first)
        });
        in_ring
            .or_else(|| self.beyond.iter().map(|&(t, _)| t.as_millis()).min())
            .map(SimTime::from_millis)
    }

    /// Moves overflow arrivals whose period has entered the ring into their
    /// buckets, keeping send order.
    fn admit_beyond(&mut self) {
        if self.beyond.is_empty() {
            return;
        }
        let (tau_ms, base) = (self.tau_ms, self.base);
        let ring = &mut self.ring;
        self.beyond.retain(|&(time, msg)| {
            let index = bucket_index(time.as_millis() / tau_ms - base);
            match ring.get_mut(index) {
                Some(bucket) => {
                    bucket.add(time.as_millis() % tau_ms, msg);
                    false
                }
                None => true,
            }
        });
    }
}

/// A ring position for a period `ahead` periods past the front; saturates,
/// so a period too far out for `usize` is simply off the ring.
fn bucket_index(ahead: u64) -> usize {
    usize::try_from(ahead).unwrap_or(usize::MAX)
}

/// Appends `inside`'s messages to `out` ordered by offset, ties in send
/// order: a counting sort over `counts` (one slot per offset), or a stable
/// comparison sort when `counts` is empty.
fn sort_into(
    inside: &mut [(u64, DeliveredSegment)],
    counts: &mut [usize],
    out: &mut Vec<DeliveredSegment>,
) {
    let Some(&(_, filler)) = inside.first() else {
        return;
    };
    if counts.is_empty() {
        inside.sort_by_key(|&(offset, _)| offset);
        out.extend(inside.iter().map(|&(_, msg)| msg));
        return;
    }
    counts.fill(0);
    for &(offset, _) in inside.iter() {
        counts[offset as usize] += 1;
    }
    let mut next = out.len();
    for slot in counts.iter_mut() {
        let n = *slot;
        *slot = next;
        next += n;
    }
    out.resize(next, filler);
    for &(offset, msg) in inside.iter() {
        let slot = &mut counts[offset as usize];
        out[*slot] = msg;
        *slot += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fss_core::SegmentId;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn msg(i: u64) -> DeliveredSegment {
        DeliveredSegment {
            requester: 1,
            supplier: 2,
            segment: SegmentId(i),
        }
    }

    fn ids(drained: &[DeliveredSegment]) -> Vec<u64> {
        drained.iter().map(|m| m.segment.0).collect()
    }

    #[test]
    fn pops_in_time_order() {
        // Pushed out of order; the last arrival lies past the two-bucket ring.
        let mut c = ArrivalCalendar::new(1_000, 2, 0);
        for (t, i) in [(9_999, 0), (1_500, 1), (1_200, 2), (2_000, 3), (1_000, 4)] {
            c.push(SimTime::from_millis(t), msg(i));
        }
        assert_eq!(c.len(), 5);
        assert_eq!(c.next_arrival(), Some(SimTime::from_millis(1_000)));
        assert_eq!(ids(c.drain(2, true)), [4, 2, 1, 3]);
        assert_eq!(c.len(), 1);
        assert_eq!(c.next_arrival(), Some(SimTime::from_millis(9_999)));
        assert_eq!(ids(c.drain(10, false)), [0]);
        assert_eq!(c.len(), 0);
        assert_eq!(c.next_arrival(), None);
    }

    #[test]
    fn ties_pop_fifo() {
        // 100 arrivals at one instant inside a period, then 100 at the next
        // boundary, which starts out in the overflow list.
        let mut c = ArrivalCalendar::new(1_000, 2, 0);
        for i in 0..100 {
            c.push(SimTime::from_millis(1_250), msg(i));
        }
        for i in 100..200 {
            c.push(SimTime::from_millis(2_000), msg(i));
        }
        let expected: Vec<u64> = (0..200).collect();
        assert_eq!(ids(c.drain(2, true)), expected);
    }

    #[test]
    fn bounded_pops_respect_their_bounds() {
        let mut c = ArrivalCalendar::new(20, 3, 0);
        c.push(SimTime::from_millis(10), msg(0)); // early
        c.push(SimTime::from_millis(20), msg(1)); // at the boundary of period 1
        c.push(SimTime::from_millis(30), msg(2)); // late

        assert_eq!(ids(c.drain(1, false)), [0]);
        // The boundary arrival is due exactly at the bound: an exclusive
        // drain refuses it, an inclusive drain takes it.
        assert!(c.drain(1, false).is_empty());
        assert_eq!(ids(c.drain(1, true)), [1]);
        assert!(c.drain(1, true).is_empty());
        assert_eq!(c.len(), 1);
        assert_eq!(ids(c.drain(2, true)), [2]);
        assert!(c.drain(1_000, false).is_empty());
    }

    #[test]
    fn long_tau_sorts_by_comparison() {
        let tau_ms = COUNTING_SORT_MAX_TAU_MS + 1;
        let mut c = ArrivalCalendar::new(tau_ms, 1, 0);
        assert!(c.counts.is_empty());
        for (t, i) in [(tau_ms - 1, 0), (5, 1), (tau_ms - 1, 2)] {
            c.push(SimTime::from_millis(t), msg(i));
        }
        assert_eq!(ids(c.drain(1, false)), [1, 0, 2]);
    }

    #[test]
    fn idle_periods_do_not_grow_the_ring() {
        let mut c = ArrivalCalendar::new(1_000, 4, 8);
        let before = c.reserved_entries();
        for period in 0..1_000 {
            assert!(c.drain(period, true).is_empty());
            assert!(c.drain(period + 1, false).is_empty());
        }
        assert_eq!(c.ring.len(), 4);
        assert_eq!(c.base, 1_000);
        assert_eq!(c.reserved_entries(), before);
    }

    #[test]
    #[should_panic(expected = "precedes the drained horizon")]
    fn pushing_into_a_drained_period_panics() {
        let mut c = ArrivalCalendar::new(1_000, 2, 0);
        c.drain(3, false);
        c.push(SimTime::from_millis(2_999), msg(0));
    }

    /// The calendar's spec: a `(time, sequence)` min-heap drained by bound.
    #[derive(Default)]
    struct HeapSpec {
        heap: BinaryHeap<Reverse<(u64, u64, u64)>>,
        seq: u64,
    }

    impl HeapSpec {
        fn push(&mut self, time: u64, id: u64) {
            self.heap.push(Reverse((time, self.seq, id)));
            self.seq += 1;
        }

        fn drain(&mut self, bound: u64, inclusive: bool) -> Vec<u64> {
            let mut out = Vec::new();
            while let Some(&Reverse((t, _, id))) = self.heap.peek() {
                if t < bound || (inclusive && t == bound) {
                    self.heap.pop();
                    out.push(id);
                } else {
                    break;
                }
            }
            out
        }

        fn next_arrival(&self) -> Option<SimTime> {
            self.heap.peek().map(|r| SimTime::from_millis(r.0 .0))
        }
    }

    /// The naive reference model: a Vec kept stably sorted by time, so
    /// same-instant entries keep send order.
    #[derive(Default)]
    struct ModelQueue {
        entries: Vec<(u64, u64)>,
    }

    impl ModelQueue {
        fn push(&mut self, time: u64, id: u64) {
            self.entries.push((time, id));
            // Stable sort: ties stay in send order.
            self.entries.sort_by_key(|&(t, _)| t);
        }

        fn drain(&mut self, bound: u64, inclusive: bool) -> Vec<u64> {
            let due = self
                .entries
                .partition_point(|&(t, _)| t < bound || (inclusive && t == bound));
            self.entries.drain(..due).map(|(_, id)| id).collect()
        }

        fn next_arrival(&self) -> Option<SimTime> {
            self.entries.first().map(|&(t, _)| SimTime::from_millis(t))
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]
        /// Whatever the push order, a drain past the last arrival returns
        /// every message sorted by (arrival time, send order).
        #[test]
        fn prop_pops_sorted(
            tau_ms in 1u64..50,
            horizon in 1usize..4,
            times in proptest::collection::vec(0u64..1_000, 1..200),
        ) {
            let mut c = ArrivalCalendar::new(tau_ms, horizon, 0);
            for (i, &t) in times.iter().enumerate() {
                c.push(SimTime::from_millis(t), msg(i as u64));
            }
            let last = times.iter().max().map_or(0, |&t| t / tau_ms + 1);
            let popped: Vec<(u64, u64)> = ids(c.drain(last, true))
                .into_iter()
                .map(|id| (times[id as usize], id))
                .collect();
            let mut sorted = popped.clone();
            sorted.sort();
            proptest::prop_assert_eq!(popped.len(), times.len());
            proptest::prop_assert_eq!(popped, sorted);
            proptest::prop_assert_eq!(c.len(), 0);
        }

        /// Model equivalence against the naive sorted-Vec reference, on both
        /// the counting-sort and the comparison-sort path: pushes interleaved
        /// with inclusive and exclusive drains give the same drain order,
        /// `len` and `next_arrival` after every step, and a final drain
        /// empties both.
        #[test]
        fn prop_matches_sorted_vec_model(
            short_tau in 1u64..40,
            long in 0u8..2,
            horizon in 1usize..4,
            ops in proptest::collection::vec((0u8..8, 0u64..1_000_000), 1..300),
        ) {
            let tau_ms = if long == 1 { COUNTING_SORT_MAX_TAU_MS + short_tau } else { short_tau };
            let mut cal = ArrivalCalendar::new(tau_ms, horizon, 4);
            let mut model = ModelQueue::default();
            let mut period = 0u64;
            for (i, &(tag, value)) in ops.iter().enumerate() {
                let id = i as u64;
                match tag {
                    // Up to five periods out, past a short ring.
                    0..=4 => {
                        let t = period * tau_ms + value % (tau_ms * 5);
                        cal.push(SimTime::from_millis(t), msg(id));
                        model.push(t, id);
                    }
                    5 => {
                        let got = ids(cal.drain(period, true));
                        proptest::prop_assert_eq!(got, model.drain(period * tau_ms, true));
                    }
                    _ => {
                        period += 1 + value % 3;
                        let got = ids(cal.drain(period, false));
                        proptest::prop_assert_eq!(got, model.drain(period * tau_ms, false));
                    }
                }
                proptest::prop_assert_eq!(cal.len(), model.entries.len());
                proptest::prop_assert_eq!(cal.next_arrival(), model.next_arrival());
            }
            let end = period + 6;
            let got = ids(cal.drain(end, true));
            proptest::prop_assert_eq!(got, model.drain(end * tau_ms, true));
            proptest::prop_assert_eq!(cal.len(), 0);
            proptest::prop_assert_eq!(cal.next_arrival(), None);
        }

        /// Differential test against a binary heap: pushes at offset 0 of
        /// the current boundary, latencies spanning several periods and
        /// 50 τ (past the ring, into the overflow list), idle periods and
        /// inclusive/exclusive drains interleaved with the pushes.  After
        /// every step the drain order, `len` and `next_arrival` match.
        #[test]
        fn prop_calendar_matches_a_binary_heap(
            tau_ms in 1u64..40,
            horizon in 1usize..4,
            ops in proptest::collection::vec((0u8..16, 0u64..1_000_000), 0..300),
        ) {
            let mut cal = ArrivalCalendar::new(tau_ms, horizon, 4);
            let mut spec = HeapSpec::default();
            let mut period = 0u64;
            for (i, &(tag, value)) in ops.iter().enumerate() {
                let now = period * tau_ms;
                let id = i as u64;
                let drained = match tag {
                    // At the boundary itself.
                    0..=1 => {
                        cal.push(SimTime::from_millis(now), msg(id));
                        spec.push(now, id);
                        None
                    }
                    // Inside this period or the next few.
                    2..=7 => {
                        let t = now + value % (tau_ms * 4);
                        cal.push(SimTime::from_millis(t), msg(id));
                        spec.push(t, id);
                        None
                    }
                    // Fifty periods out, give or take a period.
                    8 => {
                        let t = now + 50 * tau_ms + value % (2 * tau_ms);
                        cal.push(SimTime::from_millis(t), msg(id));
                        spec.push(t, id);
                        None
                    }
                    9..=10 => Some((period, true)),
                    // Close this period and open the next.
                    11..=13 => {
                        period += 1;
                        Some((period, false))
                    }
                    // Idle periods: several boundaries with no pushes.
                    _ => {
                        period += 1 + value % 60;
                        Some((period, value % 2 == 0))
                    }
                };
                if let Some((p, inclusive)) = drained {
                    let got = ids(cal.drain(p, inclusive));
                    proptest::prop_assert_eq!(got, spec.drain(p * tau_ms, inclusive));
                }
                proptest::prop_assert_eq!(cal.len(), spec.heap.len());
                proptest::prop_assert_eq!(cal.next_arrival(), spec.next_arrival());
                proptest::prop_assert_eq!(cal.ring.len(), horizon);
            }
        }
    }
}
