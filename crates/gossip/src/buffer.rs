//! Per-node FIFO segment buffer.
//!
//! Each node holds a buffer of `B` segments (600 in the paper).  The
//! replacement strategy is FIFO: when a new segment arrives and the buffer is
//! full the *oldest arrival* is evicted.  The paper's rarity computation
//! (eq. 8) needs, for every candidate segment, its **position** in each
//! supplier's buffer measured as the distance from the buffer tail (the
//! insertion end): a freshly inserted segment has position 1, the next
//! segment to be evicted has position `len()`.
//!
//! # Hot-path representation
//!
//! The scheduling sweep probes buffers millions of times per simulated
//! second, so membership and positions must be O(1) and steady-state
//! operation must neither allocate nor rebuild anything per period:
//!
//! * `arrivals` is a ring of at most `capacity` entries (allocated once),
//!   each a **`u32` offset from the window base** rather than a full 8-byte
//!   `SegmentId` — offsets are bounded by [`MAX_SPAN_IDS`], and the rare
//!   events that move the base (window compaction, out-of-order rebases)
//!   re-anchor the ring in the same O(span) pass;
//! * availability lives in a **windowed bitmap** (`base` + `words`),
//!   maintained incrementally on insert/evict.  The window slides with the
//!   stream: when the head outgrows the words, dead all-zero leading words
//!   are compacted away in place, so steady-state inserts never allocate.
//!   This bitmap doubles as each peer's advertised buffer map — neighbours
//!   intersect its words directly instead of probing ids one by one;
//! * `seqs` stores, for every covered id, its **arrival sequence number**
//!   as a `u16` relative to the current *epoch*.  Because eviction always
//!   removes the oldest arrival, the live sequence numbers form a
//!   contiguous range of at most `len() ≤ capacity < 2¹⁶` values, so
//!   `position_from_tail` is a single subtraction: `next_seq − seq` — exact
//!   by construction, with no modular arithmetic to reason about (see
//!   *Epoch wrapping* below);
//! * the maximum held id is cached; it only needs recomputing when the
//!   evicted segment *is* the maximum (an out-of-order tail, rare in
//!   practice), which costs one reverse word scan and still no allocation.
//!
//! # Epoch wrapping
//!
//! A `u16` arrival counter overflows after 65 536 inserts — a *real* event
//! for any long-lived stream (a 10 segment/s channel gets there in under
//! two hours).  Instead of relying on wrapping subtraction (whose
//! correctness silently depends on the live window never straddling the
//! wrap), the buffer keeps an explicit invariant:
//!
//! > all live sequence numbers lie in `[next_seq − len, next_seq)` with
//! > `next_seq ≤ 2¹⁶`.
//!
//! When the counter reaches 2¹⁶ the buffer **renormalises**: it subtracts
//! the oldest live sequence number from every live entry (one pass over the
//! set bits, no allocation), bumping the *epoch*.  Positions are exact
//! across arbitrarily many epochs; [`epochs`](FifoBuffer::epochs) counts the
//! renormalisations for tests and diagnostics.  This is why
//! [`FifoBuffer::new`] rejects capacities ≥ 2¹⁶ — the live range must fit
//! one epoch.
//!
//! # Memory model
//!
//! The window costs O(span) bytes, where span = `max held id − min held id`
//! (not O(capacity) like a tree/map index): 1 availability bit plus a
//! 2-byte sequence entry per id of span, and 4 ring bytes per held segment.
//! This is the right trade for streaming workloads, where FIFO eviction
//! keeps the span within a few multiples of the buffer capacity.  Ids are
//! **not** required to be contiguous, but they must be stream-local:
//! inserting two ids further than [`MAX_SPAN_IDS`] apart panics with a
//! diagnostic instead of silently attempting a giant allocation.
//! [`mem_breakdown`](FifoBuffer::mem_breakdown) reports the reserved bytes
//! per component; see `docs/performance.md` for the per-peer budget.

use crate::mem::{vec_bytes, BufferMemBreakdown, MemoryFootprint};
use crate::prefetch::prefetch_read;
use crate::segment::SegmentId;
use std::collections::VecDeque;

/// Extra zero words appended on growth so the compaction/extension cycle
/// amortises instead of running every few inserts.
const GROWTH_SLACK_WORDS: usize = 4;

/// Largest allowed distance between the smallest and largest held id.
///
/// The availability window costs O(span) memory (see the module docs); a
/// span beyond this bound (4M ids ≈ 10 MB of window) almost certainly means
/// the buffer is being fed non-stream ids, so we fail fast with a clear
/// message rather than letting the allocator abort.  The bound also keeps
/// ring offsets well inside `u32`.
pub const MAX_SPAN_IDS: u64 = 1 << 22;

/// One past the largest sequence number an epoch can hold.
const EPOCH_LIMIT: u32 = 1 << 16;

/// FIFO buffer of segment ids with O(1) membership and position queries and
/// word-level availability access.
#[derive(Debug, Default)]
pub struct FifoBuffer {
    capacity: usize,
    /// Arrival order, oldest at the front, as offsets from `base`.
    arrivals: VecDeque<u32>,
    /// First id covered by the bitmap; always a multiple of 64.
    base: u64,
    /// Availability bits over `[base, base + 64·words.len())`.
    words: Vec<u64>,
    /// Epoch-relative arrival sequence number per covered id (valid only
    /// where the availability bit is set).
    seqs: Vec<u16>,
    /// Sequence number the next insert will receive; kept ≤ [`EPOCH_LIMIT`]
    /// by renormalisation.
    next_seq: u32,
    /// Number of epoch renormalisations performed so far.
    epochs: u64,
    /// Cached greatest held id.
    max: Option<SegmentId>,
}

impl Clone for FifoBuffer {
    /// A faithful copy, reserved capacity included: the memory meter
    /// ([`mem_breakdown`](Self::mem_breakdown)) reads the same on the copy,
    /// and both grow alike from here on.
    fn clone(&self) -> Self {
        let mut copy = FifoBuffer {
            arrivals: VecDeque::with_capacity(self.arrivals.capacity()),
            words: Vec::with_capacity(self.words.capacity()),
            seqs: Vec::with_capacity(self.seqs.capacity()),
            ..*self
        };
        copy.arrivals.extend(&self.arrivals);
        copy.words.extend_from_slice(&self.words);
        copy.seqs.extend_from_slice(&self.seqs);
        copy
    }
}

impl PartialEq for FifoBuffer {
    fn eq(&self, other: &Self) -> bool {
        // Two buffers are equal when they would behave identically: same
        // capacity and same segments in the same arrival order.  The bitmap
        // window placement and the epoch anchoring are implementation
        // details (the ring stores base-relative offsets, so raw entries
        // are not comparable across different window histories).
        self.capacity == other.capacity
            && self.arrivals.len() == other.arrivals.len()
            && self.arrivals().eq(other.arrivals())
    }
}

impl FifoBuffer {
    /// Creates an empty buffer that can hold `capacity` segments.
    ///
    /// # Panics
    /// Panics if `capacity` is zero or does not fit one sequence epoch
    /// (`capacity ≥ 2¹⁶` — see the module docs on epoch wrapping).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "buffer capacity must be positive");
        assert!(
            capacity < EPOCH_LIMIT as usize,
            "buffer capacity {capacity} must fit one u16 sequence epoch (< {EPOCH_LIMIT})"
        );
        FifoBuffer {
            capacity,
            arrivals: VecDeque::with_capacity(capacity),
            base: 0,
            words: Vec::new(),
            seqs: Vec::new(),
            next_seq: 0,
            epochs: 0,
            max: None,
        }
    }

    /// Maximum number of segments the buffer can hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of segments currently held.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// True when the buffer holds no segments.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }

    /// Number of sequence-epoch renormalisations performed so far.
    ///
    /// Grows by one per 2¹⁶ arrivals in steady state; useful to assert that
    /// a test actually crossed an epoch boundary.
    pub fn epochs(&self) -> u64 {
        self.epochs
    }

    fn offset_of(&self, id: u64) -> Option<usize> {
        if id < self.base {
            return None;
        }
        let offset = (id - self.base) as usize;
        if offset < self.words.len() * 64 {
            Some(offset)
        } else {
            None
        }
    }

    /// True when `segment` is currently held.
    pub fn contains(&self, segment: SegmentId) -> bool {
        match self.offset_of(segment.value()) {
            Some(offset) => (self.words[offset / 64] >> (offset % 64)) & 1 == 1,
            None => false,
        }
    }

    /// The 64 availability bits covering `[aligned, aligned + 63]`
    /// (`aligned` must be a multiple of 64; ids outside the window read 0).
    ///
    /// This is the peer's advertised buffer map, maintained incrementally:
    /// neighbours intersect these words with their own "needed" windows to
    /// enumerate candidate segments without per-id probing.
    #[inline]
    pub fn availability_word(&self, aligned: u64) -> u64 {
        debug_assert_eq!(aligned % 64, 0);
        if aligned < self.base {
            return 0;
        }
        self.words
            .get(((aligned - self.base) / 64) as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Drops dead (all-zero) leading words, sliding the window base up and
    /// re-anchoring the ring offsets.
    fn compact_leading_zeros(&mut self) {
        let zeros = self.words.iter().take_while(|&&w| w == 0).count();
        if zeros == 0 || zeros == self.words.len() {
            return;
        }
        let len = self.words.len();
        self.words.copy_within(zeros..len, 0);
        self.words.truncate(len - zeros);
        self.seqs.copy_within(zeros * 64..len * 64, 0);
        self.seqs.truncate((len - zeros) * 64);
        self.base += (zeros as u64) * 64;
        // Every held id sits at or above the new base, so every ring offset
        // is at least `zeros·64`.
        let delta: u32 = crate::cast::narrow(zeros * 64, "compacted span within MAX_SPAN_IDS");
        for offset in self.arrivals.iter_mut() {
            *offset -= delta;
        }
    }

    /// Grows a vector to `new_len` zeroes without amortised over-allocation:
    /// window growth is rare and self-limiting (compaction reclaims dead
    /// words), so exact reservations keep the steady-state footprint at the
    /// true high-water mark instead of up to 2× of it.
    fn grow_exact<T: Copy + Default>(v: &mut Vec<T>, new_len: usize) {
        if new_len > v.capacity() {
            v.reserve_exact(new_len - v.len());
        }
        v.resize(new_len, T::default());
    }

    /// Grows/slides the window so `id` is covered.
    ///
    /// # Panics
    /// Panics when covering `id` would stretch the window beyond
    /// [`MAX_SPAN_IDS`].
    fn ensure_covered(&mut self, id: u64) {
        if self.words.is_empty() {
            self.base = id & !63;
            Self::grow_exact(&mut self.words, 1 + GROWTH_SLACK_WORDS);
            Self::grow_exact(&mut self.seqs, (1 + GROWTH_SLACK_WORDS) * 64);
            return;
        }
        if id < self.base {
            // Out-of-order arrival below the window: prepend words.
            assert!(
                self.base + self.words.len() as u64 * 64 - (id & !63) <= MAX_SPAN_IDS,
                "FifoBuffer id span would exceed {MAX_SPAN_IDS} ids (inserting {id} below window base {}); \
                 this buffer is designed for stream-local segment ids",
                self.base
            );
            let new_base = id & !63;
            let shift = ((self.base - new_base) / 64) as usize;
            let old_len = self.words.len();
            Self::grow_exact(&mut self.words, old_len + shift);
            self.words.copy_within(0..old_len, shift);
            self.words[..shift].fill(0);
            Self::grow_exact(&mut self.seqs, (old_len + shift) * 64);
            self.seqs.copy_within(0..old_len * 64, shift * 64);
            self.seqs[..shift * 64].fill(0);
            self.base = new_base;
            // Held ids kept their absolute positions, so their offsets from
            // the lowered base all grew by the prepended span.
            let delta: u32 = crate::cast::narrow(shift * 64, "prepended span within MAX_SPAN_IDS");
            for offset in self.arrivals.iter_mut() {
                *offset += delta;
            }
            return;
        }
        let needed = ((id - self.base) / 64) as usize + 1;
        if needed <= self.words.len() {
            return;
        }
        // Reclaim dead leading words before growing; in steady state the
        // window slides with the stream and this avoids any allocation.
        self.compact_leading_zeros();
        let needed = ((id - self.base) / 64) as usize + 1;
        if needed > self.words.len() {
            assert!(
                (needed as u64) * 64 <= MAX_SPAN_IDS,
                "FifoBuffer id span would exceed {MAX_SPAN_IDS} ids (inserting {id} with window base {}); \
                 this buffer is designed for stream-local segment ids",
                self.base
            );
            Self::grow_exact(&mut self.words, needed + GROWTH_SLACK_WORDS);
            Self::grow_exact(&mut self.seqs, (needed + GROWTH_SLACK_WORDS) * 64);
        }
    }

    fn recompute_max(&mut self) {
        self.max = None;
        for (i, &word) in self.words.iter().enumerate().rev() {
            if word != 0 {
                let top = 63 - word.leading_zeros() as u64;
                self.max = Some(SegmentId(self.base + (i as u64) * 64 + top));
                return;
            }
        }
    }

    // fss-lint: hot-path
    /// Removes and returns the oldest arrival (the FIFO victim).
    fn evict_oldest(&mut self) -> SegmentId {
        let offset = self.arrivals.pop_front().expect("non-empty when evicting") as usize;
        let old = SegmentId(self.base + offset as u64);
        self.words[offset / 64] &= !(1 << (offset % 64));
        if self.max == Some(old) {
            self.recompute_max();
        }
        old
    }

    /// Re-anchors all live sequence numbers to a fresh epoch: subtracts the
    /// oldest live sequence number from every live entry so the range
    /// becomes `[0, len)` and the counter restarts at `len`.  One pass over
    /// the set bits, no allocation.
    fn renormalise_epoch(&mut self) {
        let live: u32 = crate::cast::narrow(self.arrivals.len(), "live count below EPOCH_LIMIT");
        let delta = self.next_seq - live;
        if delta == 0 {
            return;
        }
        if live > 0 {
            // Live sequence numbers are exactly [delta, next_seq), so the
            // u16 subtraction below can never underflow; with live > 0 the
            // delta itself is at most EPOCH_LIMIT − 1 and fits a u16.
            let delta: u16 = crate::cast::narrow(delta, "epoch delta bounded by live range");
            for (i, &word) in self.words.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let offset = i * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.seqs[offset] -= delta;
                }
            }
        }
        self.next_seq = live;
        self.epochs += 1;
    }

    /// Inserts a segment.  Returns the evicted segment if the buffer was full,
    /// or `None`.  Re-inserting an already-held segment is a no-op.
    pub fn insert(&mut self, segment: SegmentId) -> Option<SegmentId> {
        if self.contains(segment) {
            return None;
        }
        let evicted = if self.arrivals.len() == self.capacity {
            Some(self.evict_oldest())
        } else {
            None
        };
        self.ensure_covered(segment.value());
        if self.next_seq == EPOCH_LIMIT {
            self.renormalise_epoch();
        }
        debug_assert!(self.next_seq < EPOCH_LIMIT);
        let offset = (segment.value() - self.base) as usize;
        self.words[offset / 64] |= 1 << (offset % 64);
        self.seqs[offset] = self.next_seq as u16;
        self.next_seq += 1;
        self.arrivals.push_back(offset as u32);
        if self.max.is_none_or(|m| segment > m) {
            self.max = Some(segment);
        }
        evicted
    }

    /// Evicts the `n` oldest arrivals without inserting anything, returning
    /// how many were removed (fewer than `n` when the buffer runs out).
    ///
    /// Positions of the surviving segments are unchanged — distance from
    /// the tail does not depend on how many older segments exist.  Useful
    /// for memory-pressure trimming and for exercising the window
    /// shrink-then-regrow paths.
    pub fn shrink_front(&mut self, n: usize) -> usize {
        let count = n.min(self.arrivals.len());
        for _ in 0..count {
            self.evict_oldest();
        }
        count
    }

    /// Position of a segment measured from the tail (insertion end): the
    /// newest segment has position 1, the oldest has position `len()`.
    /// Returns `None` when the segment is not held.
    ///
    /// This is the `p_ij` of Table 2: `p_ij / B` approximates the probability
    /// that the segment will soon be replaced in this buffer.
    pub fn position_from_tail(&self, segment: SegmentId) -> Option<usize> {
        let offset = self.offset_of(segment.value())?;
        if (self.words[offset / 64] >> (offset % 64)) & 1 == 0 {
            return None;
        }
        // Exact: live seqs lie in [next_seq − len, next_seq), so the
        // difference is within [1, len] — no wrapping involved.
        Some((self.next_seq - u32::from(self.seqs[offset])) as usize)
    }

    /// [`position_from_tail`](Self::position_from_tail) of a segment the
    /// caller has already seen held — its bit is set in an
    /// [`availability_word`](Self::availability_word) of this buffer — so
    /// the membership test is skipped (checked in debug builds only).
    #[inline]
    pub(crate) fn held_position(&self, segment: SegmentId) -> u32 {
        debug_assert!(self.contains(segment), "{segment} is not held");
        let offset = (segment.value() - self.base) as usize;
        self.next_seq - u32::from(self.seqs[offset])
    }

    /// Prefetches the window head: the availability word(s) and the
    /// sequence-array lines of the newest 64 ids (`max_id − 63 ..= max_id`),
    /// where the scheduling pass's candidate probes land.  Reads only the
    /// struct itself; an empty buffer prefetches nothing.
    #[inline]
    pub(crate) fn prefetch_head(&self) {
        let Some(max) = self.max else { return };
        let newest = max.value() - self.base;
        let oldest = newest.saturating_sub(63);
        for offset in [oldest, newest] {
            if let Some(word) = self.words.get((offset / 64) as usize) {
                prefetch_read(word);
            }
        }
        // 64 `u16` entries are 128 bytes: up to three lines.
        for offset in [oldest, oldest + 32, newest] {
            if let Some(seq) = self.seqs.get(offset as usize) {
                prefetch_read(seq);
            }
        }
    }

    /// Prefetches the lines an [`insert`](Self::insert) of `segment` will
    /// touch: the segment's availability word and sequence entry, the
    /// window's first word, and the ring's front slot (evicted when full)
    /// and back slot (next to the append).  Reads only the struct itself;
    /// ids outside the window prefetch only the window's first word and
    /// the ring ends.
    #[inline]
    pub(crate) fn prefetch_insert(&self, segment: SegmentId) {
        if let Some(offset) = self.offset_of(segment.value()) {
            if let Some(word) = self.words.get(offset / 64) {
                prefetch_read(word);
            }
            if let Some(seq) = self.seqs.get(offset) {
                prefetch_read(seq);
            }
        }
        if let Some(word) = self.words.first() {
            prefetch_read(word);
        }
        if let Some(front) = self.arrivals.front() {
            prefetch_read(front);
        }
        if let Some(back) = self.arrivals.back() {
            prefetch_read(back);
        }
    }
    // fss-lint: end

    /// Positions of many segments at once.
    /// The result aligns with `segments`; `None` marks absent segments.
    pub fn positions_of(&self, segments: &[SegmentId]) -> Vec<Option<usize>> {
        segments
            .iter()
            .map(|&s| self.position_from_tail(s))
            .collect()
    }

    /// Iterator over held segment ids in ascending id order (no allocation:
    /// walks the availability words).
    pub fn ids(&self) -> impl Iterator<Item = SegmentId> + '_ {
        let base = self.base;
        self.words
            .iter()
            .enumerate()
            .flat_map(move |(i, &word)| BitIter {
                word,
                base: base + (i as u64) * 64,
            })
    }

    /// Iterator over held segments in arrival order (oldest first).
    pub fn arrivals(&self) -> impl Iterator<Item = SegmentId> + '_ {
        let base = self.base;
        self.arrivals
            .iter()
            .map(move |&offset| SegmentId(base + offset as u64))
    }

    /// Number of held segments with ids in `[from, to]` (inclusive):
    /// a popcount over the covered words.
    pub fn count_in_range(&self, from: SegmentId, to: SegmentId) -> usize {
        if to < from || self.words.is_empty() {
            return 0;
        }
        let lo = from.value().max(self.base);
        let hi = to.value().min(self.base + self.words.len() as u64 * 64 - 1);
        if hi < lo {
            return 0;
        }
        let mut count = 0usize;
        let mut word_base = lo & !63;
        while word_base <= hi {
            let mut word = self.availability_word(word_base);
            if word_base < lo {
                word &= u64::MAX << (lo - word_base);
            }
            if word_base + 63 > hi {
                word &= u64::MAX >> (word_base + 63 - hi);
            }
            count += word.count_ones() as usize;
            word_base += 64;
        }
        count
    }

    /// Ids in `[from, to]` (inclusive) that are **not** held.
    pub fn missing_in_range(&self, from: SegmentId, to: SegmentId) -> Vec<SegmentId> {
        if to < from {
            return Vec::new();
        }
        (from.value()..=to.value())
            .map(SegmentId)
            .filter(|&id| !self.contains(id))
            .collect()
    }

    /// Length of the run of consecutively held segments starting at `from`.
    pub fn contiguous_run_from(&self, from: SegmentId) -> usize {
        let mut count = 0;
        let mut id = from;
        while self.contains(id) {
            count += 1;
            id = id.next();
        }
        count
    }

    /// Greatest held id, if any (O(1), cached).
    ///
    /// Marked `#[inline]`: the fused scheduling gather calls this across
    /// crate boundaries for every neighbour of every active peer — the call
    /// must collapse to a single field load so the chunk walk stays bound by
    /// the prefetched column reads, not by call overhead.
    #[inline]
    pub fn max_id(&self) -> Option<SegmentId> {
        self.max
    }

    /// Reserved heap bytes per component (ring / window / sequence array).
    ///
    /// `#[inline]` for the shard-major meter sweep, which calls this per
    /// active peer right after prefetching the buffer struct.
    #[inline]
    pub fn mem_breakdown(&self) -> BufferMemBreakdown {
        BufferMemBreakdown {
            ring_bytes: self.arrivals.capacity() * std::mem::size_of::<u32>(),
            window_bytes: vec_bytes(&self.words),
            seq_bytes: vec_bytes(&self.seqs),
        }
    }
}

impl MemoryFootprint for FifoBuffer {
    fn heap_bytes(&self) -> usize {
        self.mem_breakdown().heap_total()
    }
}

/// Iterator over the set bits of one availability word.
struct BitIter {
    word: u64,
    base: u64,
}

impl Iterator for BitIter {
    type Item = SegmentId;
    fn next(&mut self) -> Option<SegmentId> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as u64;
        self.word &= self.word - 1;
        Some(SegmentId(self.base + bit))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u64]) -> Vec<SegmentId> {
        v.iter().map(|&i| SegmentId(i)).collect()
    }

    #[test]
    fn insert_contains_and_len() {
        let mut b = FifoBuffer::new(3);
        assert!(b.is_empty());
        assert_eq!(b.insert(SegmentId(5)), None);
        assert_eq!(b.insert(SegmentId(7)), None);
        assert!(b.contains(SegmentId(5)));
        assert!(!b.contains(SegmentId(6)));
        assert_eq!(b.len(), 2);
        assert_eq!(b.capacity(), 3);
    }

    #[test]
    fn fifo_eviction_order() {
        let mut b = FifoBuffer::new(3);
        b.insert(SegmentId(1));
        b.insert(SegmentId(2));
        b.insert(SegmentId(3));
        // Inserting a fourth evicts the oldest arrival (1).
        assert_eq!(b.insert(SegmentId(4)), Some(SegmentId(1)));
        assert!(!b.contains(SegmentId(1)));
        assert_eq!(b.len(), 3);
        // Out-of-order arrival: 0 arrives late, evicts 2 (the now-oldest).
        assert_eq!(b.insert(SegmentId(0)), Some(SegmentId(2)));
        assert!(b.contains(SegmentId(0)));
    }

    #[test]
    fn duplicate_insert_is_noop() {
        let mut b = FifoBuffer::new(2);
        b.insert(SegmentId(1));
        assert_eq!(b.insert(SegmentId(1)), None);
        assert_eq!(b.len(), 1);
        b.insert(SegmentId(2));
        // 1 is still oldest despite the duplicate insert attempt.
        assert_eq!(b.insert(SegmentId(3)), Some(SegmentId(1)));
    }

    #[test]
    fn positions_measure_distance_from_tail() {
        let mut b = FifoBuffer::new(10);
        for i in 0..5 {
            b.insert(SegmentId(i));
        }
        // Newest (4) has position 1, oldest (0) has position 5.
        assert_eq!(b.position_from_tail(SegmentId(4)), Some(1));
        assert_eq!(b.position_from_tail(SegmentId(0)), Some(5));
        assert_eq!(b.position_from_tail(SegmentId(9)), None);

        let positions = b.positions_of(&ids(&[4, 0, 2, 99]));
        assert_eq!(positions, vec![Some(1), Some(5), Some(3), None]);
    }

    #[test]
    fn positions_survive_eviction() {
        let mut b = FifoBuffer::new(4);
        for i in 0..9 {
            b.insert(SegmentId(i));
        }
        // Held: 5, 6, 7, 8 (oldest→newest).
        assert_eq!(b.position_from_tail(SegmentId(8)), Some(1));
        assert_eq!(b.position_from_tail(SegmentId(5)), Some(4));
        assert_eq!(b.position_from_tail(SegmentId(4)), None);
    }

    #[test]
    fn positions_of_empty_query() {
        let b = FifoBuffer::new(4);
        assert!(b.positions_of(&[]).is_empty());
        assert_eq!(b.positions_of(&ids(&[1])), vec![None]);
    }

    #[test]
    fn prefetch_helpers_are_safe_and_leave_the_buffer_unchanged() {
        let mut one = FifoBuffer::new(4);
        one.insert(SegmentId(130));
        let mut slid = FifoBuffer::new(8);
        for i in 0..500u64 {
            slid.insert(SegmentId(i));
        }
        let buffers = [FifoBuffer::default(), FifoBuffer::new(4), one, slid];
        for buffer in &buffers {
            let before = buffer.clone();
            buffer.prefetch_head();
            // Below the base, inside, at the head, past the window.
            for id in [0, 1, 130, 450, 499, 500, 10_000, u64::MAX] {
                buffer.prefetch_insert(SegmentId(id));
            }
            assert_eq!(*buffer, before);
            for id in buffer.ids() {
                assert_eq!(
                    Some(buffer.held_position(id) as usize),
                    buffer.position_from_tail(id)
                );
            }
        }
    }

    #[test]
    fn range_queries() {
        let mut b = FifoBuffer::new(10);
        for i in [1u64, 2, 3, 6, 7] {
            b.insert(SegmentId(i));
        }
        assert_eq!(b.count_in_range(SegmentId(1), SegmentId(7)), 5);
        assert_eq!(b.count_in_range(SegmentId(4), SegmentId(5)), 0);
        assert_eq!(b.count_in_range(SegmentId(7), SegmentId(1)), 0);
        assert_eq!(b.count_in_range(SegmentId(0), SegmentId(1_000_000)), 5);
        assert_eq!(b.missing_in_range(SegmentId(1), SegmentId(7)), ids(&[4, 5]));
        assert_eq!(b.missing_in_range(SegmentId(8), SegmentId(7)), ids(&[]));
        assert_eq!(b.contiguous_run_from(SegmentId(1)), 3);
        assert_eq!(b.contiguous_run_from(SegmentId(6)), 2);
        assert_eq!(b.contiguous_run_from(SegmentId(4)), 0);
        assert_eq!(b.max_id(), Some(SegmentId(7)));
        assert_eq!(FifoBuffer::new(3).max_id(), None);
    }

    #[test]
    fn max_id_tracks_eviction_of_the_maximum() {
        let mut b = FifoBuffer::new(3);
        b.insert(SegmentId(9)); // max arrives first (oldest)
        b.insert(SegmentId(3));
        b.insert(SegmentId(5));
        assert_eq!(b.max_id(), Some(SegmentId(9)));
        // Evicting 9 (the oldest arrival AND the max) forces a recompute.
        b.insert(SegmentId(4));
        assert_eq!(b.max_id(), Some(SegmentId(5)));
        assert!(!b.contains(SegmentId(9)));
    }

    #[test]
    fn window_slides_with_the_stream() {
        // Stream 100k ids through a small buffer: the bitmap window must
        // track the live span instead of growing with the id space.
        let mut b = FifoBuffer::new(64);
        for i in 0..100_000u64 {
            b.insert(SegmentId(i));
        }
        assert_eq!(b.len(), 64);
        assert!(b.contains(SegmentId(99_999)));
        assert!(!b.contains(SegmentId(99_935)));
        assert_eq!(b.max_id(), Some(SegmentId(99_999)));
        assert!(
            b.words.len() <= 4 + 2 * GROWTH_SLACK_WORDS,
            "window kept {} words for a 64-id span",
            b.words.len()
        );
        // Positions still exact after 100k slides (and one epoch bump).
        assert_eq!(b.position_from_tail(SegmentId(99_999)), Some(1));
        assert_eq!(b.position_from_tail(SegmentId(99_936)), Some(64));
        assert_eq!(b.epochs(), 1, "100k arrivals cross one 2^16 epoch");
    }

    /// The wraparound regression test the u16 counter makes cheap: stream
    /// far enough past 2¹⁶ arrivals that the counter renormalises several
    /// times, checking positions stay exact at every point around each
    /// epoch boundary (with the old wrapping-subtraction scheme this is
    /// where a live window straddling the wrap went wrong — and at u32 the
    /// equivalent test would need 4 × 10⁹ inserts).
    #[test]
    fn positions_stay_exact_across_epoch_wraps() {
        let mut b = FifoBuffer::new(600);
        let total = 3 * (EPOCH_LIMIT as u64) + 1234;
        for i in 0..total {
            b.insert(SegmentId(i));
            // Probe right as each epoch boundary approaches and passes: the
            // whole live window must stay a permutation of 1..=len.
            let near_boundary = (i + 2) % (EPOCH_LIMIT as u64) < 4;
            if near_boundary || i == total - 1 {
                let len = b.len() as u64;
                for back in [0u64, 1, len / 2, len - 1] {
                    if back >= len {
                        continue;
                    }
                    let id = SegmentId(i - back);
                    assert_eq!(
                        b.position_from_tail(id),
                        Some(back as usize + 1),
                        "wrong position for {id} after {i} arrivals"
                    );
                }
            }
        }
        assert_eq!(b.epochs(), 3, "three epoch renormalisations expected");
        assert_eq!(b.len(), 600);
    }

    /// Cast-audit regression: reaching the epoch boundary with an *empty*
    /// buffer makes the renormalisation delta `EPOCH_LIMIT` itself — one
    /// past `u16::MAX`.  The `live > 0` guard keeps that value away from
    /// the checked `u16` narrowing (the old bare `as u16` would have
    /// silently wrapped it to 0 had the guard ever been dropped).
    #[test]
    fn empty_buffer_epoch_renormalisation_avoids_the_u16_edge() {
        let mut b = FifoBuffer::new(1);
        // Capacity-1 buffer: every insert evicts its predecessor.
        for i in 0..EPOCH_LIMIT as u64 {
            b.insert(SegmentId(i));
        }
        assert_eq!(b.epochs(), 0);
        assert_eq!(b.shrink_front(1), 1);
        assert!(b.is_empty(), "buffer drained at the epoch boundary");
        // This insert renormalises with live == 0 and delta == EPOCH_LIMIT.
        b.insert(SegmentId(EPOCH_LIMIT as u64));
        assert_eq!(b.epochs(), 1);
        assert_eq!(b.len(), 1);
        assert_eq!(b.position_from_tail(SegmentId(EPOCH_LIMIT as u64)), Some(1));
        // The fresh epoch keeps counting positions exactly.
        for i in 1..100u64 {
            let id = SegmentId(EPOCH_LIMIT as u64 + i);
            b.insert(id);
            assert_eq!(b.position_from_tail(id), Some(1));
        }
    }

    /// Satellite audit: window growth zero-fills `seqs` for newly covered
    /// ids, and renormalisation rewrites live entries to start at 0 — so a
    /// *stale* zero in `seqs` (an id that was covered, evicted, then the
    /// region re-covered) coexists with a *live* zero.  The two can never be
    /// confused because every read of `seqs` is gated on the availability
    /// bit; this test pins that down across an uncover/recover cycle right
    /// after an epoch bump.
    #[test]
    fn stale_zero_seqs_never_collide_with_live_seqs() {
        let mut b = FifoBuffer::new(4);
        // Drive the counter to the epoch boundary exactly.
        for i in 0..EPOCH_LIMIT as u64 {
            b.insert(SegmentId(i));
        }
        assert_eq!(b.epochs(), 0);
        // The next insert renormalises: live seqs become 0..4, so the oldest
        // live entry now stores seq 0.
        b.insert(SegmentId(EPOCH_LIMIT as u64));
        assert_eq!(b.epochs(), 1);
        let oldest = SegmentId(EPOCH_LIMIT as u64 - 3);
        assert_eq!(b.position_from_tail(oldest), Some(4));

        // Rebase the window downwards onto a long-uncovered region whose
        // fresh seq entries are zero-filled: ids there are NOT held, so the
        // stale/fresh zeros must read as absent, not as position len().
        let low = SegmentId(EPOCH_LIMIT as u64 - 10_000);
        b.insert(low); // evicts the oldest, re-covers the low region
        assert_eq!(b.position_from_tail(low), Some(1));
        for probe in 1..64u64 {
            let id = SegmentId(low.value() + probe);
            assert!(!b.contains(id));
            assert_eq!(
                b.position_from_tail(id),
                None,
                "zero-filled seq for uncovered id {id} leaked a position"
            );
        }
        // The surviving live entries still report exact positions.
        assert_eq!(b.position_from_tail(SegmentId(EPOCH_LIMIT as u64)), Some(2));
    }

    #[test]
    fn shrink_front_evicts_oldest_and_keeps_positions() {
        let mut b = FifoBuffer::new(8);
        for i in 0..8u64 {
            b.insert(SegmentId(i));
        }
        assert_eq!(b.shrink_front(3), 3);
        assert_eq!(b.len(), 5);
        assert!(!b.contains(SegmentId(2)));
        assert!(b.contains(SegmentId(3)));
        // Tail distances are unchanged by dropping the head.
        assert_eq!(b.position_from_tail(SegmentId(7)), Some(1));
        assert_eq!(b.position_from_tail(SegmentId(3)), Some(5));
        assert_eq!(b.arrivals().collect::<Vec<_>>(), ids(&[3, 4, 5, 6, 7]));
        // Over-shrinking clamps; the buffer stays usable afterwards.
        assert_eq!(b.shrink_front(100), 5);
        assert!(b.is_empty());
        assert_eq!(b.max_id(), None);
        b.insert(SegmentId(50));
        assert_eq!(b.position_from_tail(SegmentId(50)), Some(1));
    }

    #[test]
    fn availability_words_mirror_contents() {
        let mut b = FifoBuffer::new(600);
        for &i in &[3u64, 64, 65, 700, 1000] {
            b.insert(SegmentId(i));
        }
        for aligned in (0..1100u64).step_by(64) {
            let word = b.availability_word(aligned);
            for bit in 0..64u64 {
                assert_eq!(
                    (word >> bit) & 1 == 1,
                    b.contains(SegmentId(aligned + bit)),
                    "aligned {aligned} bit {bit}"
                );
            }
        }
    }

    #[test]
    fn out_of_order_low_arrival_rebases_the_window() {
        let mut b = FifoBuffer::new(10);
        b.insert(SegmentId(1_000));
        b.insert(SegmentId(10));
        assert!(b.contains(SegmentId(10)));
        assert!(b.contains(SegmentId(1_000)));
        assert_eq!(b.max_id(), Some(SegmentId(1_000)));
        assert_eq!(b.position_from_tail(SegmentId(10)), Some(1));
        assert_eq!(b.position_from_tail(SegmentId(1_000)), Some(2));
    }

    #[test]
    fn id_and_arrival_iterators() {
        let mut b = FifoBuffer::new(5);
        for i in [9u64, 3, 7] {
            b.insert(SegmentId(i));
        }
        assert_eq!(b.ids().collect::<Vec<_>>(), ids(&[3, 7, 9]));
        assert_eq!(b.arrivals().collect::<Vec<_>>(), ids(&[9, 3, 7]));
    }

    #[test]
    fn equality_ignores_window_anchoring() {
        // Same segments in the same arrival order through different window
        // histories (one buffer slid, the other did not): still equal.
        let mut slid = FifoBuffer::new(4);
        for i in 0..1_000u64 {
            slid.insert(SegmentId(i));
        }
        let mut fresh = FifoBuffer::new(4);
        for i in 996..1_000u64 {
            fresh.insert(SegmentId(i));
        }
        assert_eq!(slid, fresh);
        fresh.insert(SegmentId(1_000));
        assert_ne!(slid, fresh);
    }

    #[test]
    fn mem_breakdown_reports_reserved_capacities() {
        let mut b = FifoBuffer::new(64);
        for i in 0..1_000u64 {
            b.insert(SegmentId(i));
        }
        let mem = b.mem_breakdown();
        assert_eq!(mem.ring_bytes, b.arrivals.capacity() * 4);
        assert_eq!(mem.window_bytes, b.words.capacity() * 8);
        assert_eq!(mem.seq_bytes, b.seqs.capacity() * 2);
        assert_eq!(mem.heap_total(), b.heap_bytes());
        assert!(b.footprint_bytes() > b.heap_bytes());
        // The compact layout halves the ring and seq components, so the
        // legacy baseline must cost strictly more.
        assert!(mem.legacy_heap_total() > mem.heap_total());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        let _ = FifoBuffer::new(0);
    }

    #[test]
    #[should_panic(expected = "u16 sequence epoch")]
    fn epoch_sized_capacity_panics() {
        let _ = FifoBuffer::new(1 << 16);
    }

    #[test]
    #[should_panic(expected = "stream-local segment ids")]
    fn absurd_id_span_panics_instead_of_allocating() {
        let mut b = FifoBuffer::new(4);
        b.insert(SegmentId(0));
        b.insert(SegmentId(1 << 40));
    }

    #[test]
    #[should_panic(expected = "stream-local segment ids")]
    fn absurd_downward_span_panics_too() {
        let mut b = FifoBuffer::new(4);
        b.insert(SegmentId(1 << 40));
        b.insert(SegmentId(0));
    }

    /// Naive reference model of the FIFO semantics: a plain arrival list,
    /// no bitmap, no sequence numbers, no window.  The compact layout must
    /// be observationally identical to this.
    struct NaiveFifo {
        capacity: usize,
        arrivals: Vec<u64>,
    }

    impl NaiveFifo {
        fn new(capacity: usize) -> Self {
            NaiveFifo {
                capacity,
                arrivals: Vec::new(),
            }
        }

        fn insert(&mut self, id: u64) -> Option<u64> {
            if self.arrivals.contains(&id) {
                return None;
            }
            let evicted = if self.arrivals.len() == self.capacity {
                Some(self.arrivals.remove(0))
            } else {
                None
            };
            self.arrivals.push(id);
            evicted
        }

        fn shrink_front(&mut self, n: usize) -> usize {
            let count = n.min(self.arrivals.len());
            self.arrivals.drain(..count);
            count
        }

        fn position_from_tail(&self, id: u64) -> Option<usize> {
            self.arrivals
                .iter()
                .position(|&a| a == id)
                .map(|i| self.arrivals.len() - i)
        }

        fn ids(&self) -> Vec<SegmentId> {
            let mut sorted = self.arrivals.clone();
            sorted.sort_unstable();
            sorted.into_iter().map(SegmentId).collect()
        }

        fn arrivals(&self) -> Vec<SegmentId> {
            self.arrivals.iter().copied().map(SegmentId).collect()
        }
    }

    /// One step of the model-equivalence property, encoded as `(tag, value)`:
    /// tags 0..8 insert (ids drawn from a sliding base so the window
    /// slides, shrinks and regrows), tag 8 shrinks the front.
    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64),
        ShrinkFront(usize),
    }

    fn decode_op((tag, value): (u8, u64)) -> Op {
        if tag < 8 {
            Op::Insert(value)
        } else {
            Op::ShrinkFront((value % 12) as usize)
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]
        /// The buffer never exceeds its capacity, membership matches the FIFO
        /// content, and positions are a permutation of 1..=len.
        #[test]
        fn prop_fifo_invariants(
            cap in 1usize..40,
            inserts in proptest::collection::vec(0u64..200, 0..300),
        ) {
            let mut b = FifoBuffer::new(cap);
            for i in inserts {
                b.insert(SegmentId(i));
            }
            proptest::prop_assert!(b.len() <= cap);
            proptest::prop_assert_eq!(b.len(), b.arrivals().count());
            proptest::prop_assert_eq!(b.len(), b.ids().count());
            for s in b.arrivals() {
                proptest::prop_assert!(b.contains(s));
            }
            let mut positions: Vec<usize> = b
                .arrivals()
                .map(|s| b.position_from_tail(s).unwrap())
                .collect();
            positions.sort_unstable();
            let expected: Vec<usize> = (1..=b.len()).collect();
            proptest::prop_assert_eq!(positions, expected);
            // The cached max matches a scan, ids are ascending, and counts
            // agree with membership.
            proptest::prop_assert_eq!(b.max_id(), b.ids().max());
            let sorted: Vec<SegmentId> = b.ids().collect();
            proptest::prop_assert!(sorted.windows(2).all(|w| w[0] < w[1]));
            proptest::prop_assert_eq!(
                b.count_in_range(SegmentId(0), SegmentId(500)),
                b.len()
            );
        }

        /// The compact layout (u32 ring offsets, u16 epoch seqs, sliding
        /// window) is observationally identical to the naive model under
        /// random insert / slide / shrink_front / regrow sequences.
        #[test]
        fn prop_compact_layout_matches_naive_model(
            cap in 1usize..24,
            raw_ops in proptest::collection::vec((0u8..9, 0u64..4_000), 1..250),
            slide in 0u64..100_000,
        ) {
            let mut compact = FifoBuffer::new(cap);
            let mut naive = NaiveFifo::new(cap);
            for (step, raw) in raw_ops.iter().enumerate() {
                match decode_op(*raw) {
                    Op::Insert(id) => {
                        // Drift the id base upwards over the run so the
                        // window must slide and compact; the raw low ids
                        // still land below it, forcing downward regrows.
                        let id = id + slide * (step as u64 % 3) / 2;
                        let evicted = compact.insert(SegmentId(id));
                        let expected = naive.insert(id).map(SegmentId);
                        proptest::prop_assert_eq!(evicted, expected);
                    }
                    Op::ShrinkFront(n) => {
                        proptest::prop_assert_eq!(compact.shrink_front(n), naive.shrink_front(n));
                    }
                }
                proptest::prop_assert_eq!(compact.len(), naive.arrivals.len());
            }
            // Observable state must agree exactly: id set, arrival order,
            // and every position.
            proptest::prop_assert_eq!(compact.ids().collect::<Vec<_>>(), naive.ids());
            proptest::prop_assert_eq!(compact.arrivals().collect::<Vec<_>>(), naive.arrivals());
            let probe: Vec<SegmentId> = naive
                .arrivals()
                .into_iter()
                .chain((0..50).map(|i| SegmentId(i * 97)))
                .collect();
            let expected: Vec<Option<usize>> = probe
                .iter()
                .map(|&s| naive.position_from_tail(s.value()))
                .collect();
            proptest::prop_assert_eq!(compact.positions_of(&probe), expected);
            proptest::prop_assert_eq!(compact.max_id(), naive.ids().last().copied());
        }
    }
}
