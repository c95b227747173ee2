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
//! operation must neither allocate nor rebuild anything per period.  The
//! struct is exactly two cache lines (128 B, 64-byte aligned):
//!
//! * the **core line** holds every field a reader or an insert needs:
//!   * the arrival ring: `capacity` slots allocated once, with a `u16` head
//!     and length, each slot a **2-byte tag**, the id's low 16 bits, rather
//!     than a full 8-byte `SegmentId`.  Tags are absolute, so the events
//!     that move the window base (compaction, out-of-order rebases) leave
//!     the ring alone; see *Resolving a tag* below;
//!   * the **windowed bitmap** (`base` + availability words), maintained
//!     incrementally on insert/evict.  The window slides with the stream:
//!     when the head outgrows the words, dead all-zero leading words are
//!     compacted away in place, so steady-state inserts never allocate;
//!   * for every covered id, its **arrival sequence number** as a `u16`
//!     relative to the current *epoch*.  Because eviction always removes
//!     the oldest arrival, the live sequence numbers form a contiguous range
//!     of at most `len() ≤ capacity < 2¹⁶` values, so `position_from_tail`
//!     is a single subtraction: `next_seq − seq` — exact by construction,
//!     with no modular arithmetic to reason about (see *Epoch wrapping*
//!     below).  Words and sequence numbers share one heap block: the
//!     reserved words, then 64 sequence numbers per reserved word, packed
//!     four to a `u64`; a `u32` counts the words in use;
//!   * the greatest held id, which only needs recomputing when the evicted
//!     segment *is* the maximum (an out-of-order tail, rare in practice): one
//!     reverse word scan, still no allocation.
//! * the **advert line** is the buffer's published head, the part of the
//!   buffer map its neighbours actually read: the availability words of the
//!   word holding the maximum and the word below it, and the sequence
//!   numbers of the held ids in `(max − 24, max]`.  Both are rings keyed by
//!   id (slot `(aligned >> 6) & 1` and slot `id % 24`), so insert and evict
//!   keep them exact in O(1): a rising maximum zeroes at most two word slots
//!   and never shifts anything.  Recomputing the maximum and renormalising
//!   the epoch — both rare — refresh the whole line from the heap.
//!
//! Neighbours read availability through `advert_word` (ids above the
//! maximum read 0 without touching the heap) and positions through
//! `advert_position`; both fall back to the heap window outside the head.  In steady streaming every scheduling probe lands within 16 ids of
//! the supplier's maximum, so a neighbour's buffer map costs the two lines
//! of its struct.
//!
//! # Resolving a tag
//!
//! The live sequence numbers are distinct and contiguous, and the ring is
//! in arrival order, so the slot `age` places after the head holds the id
//! whose sequence number is `next_seq − len + age`.  A tag therefore only
//! has to choose among the held ids that share its low 16 bits, and the
//! sequence array settles the choice:
//!
//! * while the window covers at most 2¹⁶ ids (every steady-state buffer:
//!   its window is about a thousand ids), no two covered ids share a tag and
//!   the offset from the base is `tag − base` modulo 2¹⁶;
//! * a wider window (at most [`MAX_SPAN_IDS`], so at most 64 candidates
//!   spaced 2¹⁶ apart) takes the cold path: the held candidate whose
//!   sequence number is `next_seq − len + age`.
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
//! 2-byte sequence entry per id of span, and 2 ring bytes per held segment.
//! This is the right trade for streaming workloads, where FIFO eviction
//! keeps the span within a few multiples of the buffer capacity.  Ids are
//! **not** required to be contiguous, but they must be stream-local:
//! inserting two ids further than [`MAX_SPAN_IDS`] apart panics with a
//! diagnostic instead of silently attempting a giant allocation.
//! [`mem_breakdown`](FifoBuffer::mem_breakdown) reports the reserved bytes
//! per component; see `docs/performance.md` for the per-peer budget.

#![expect(
    clippy::expect_used,
    reason = "every ring slot names exactly one held id by its sequence number; a slot that names none is a broken FIFO invariant"
)]

use crate::mem::BufferMemBreakdown;
use crate::prefetch::prefetch_read;
use fss_core::SegmentId;

/// Extra zero words appended on growth so the compaction/extension cycle
/// amortises instead of running every few inserts.
const GROWTH_SLACK_WORDS: usize = 4;

/// Largest allowed distance between the smallest and largest held id.
///
/// The availability window costs O(span) memory (see the module docs); a
/// span beyond this bound (4M ids ≈ 10 MB of window) almost certainly means
/// the buffer is being fed non-stream ids, so we fail fast with a clear
/// message rather than letting the allocator abort.
pub const MAX_SPAN_IDS: u64 = 1 << 22;

/// Ids a ring tag tells apart: window offsets below this resolve from the
/// tag alone.
const TAG_SPAN: usize = 1 << 16;

/// One past the largest sequence number an epoch can hold.
const EPOCH_LIMIT: u32 = 1 << 16;

/// `u64`s holding one availability word's 64 `u16` sequence numbers, four
/// to a `u64`.
const SEQ_WORDS: usize = 64 / 4;

/// `u64`s of the window block per reserved availability word: the word
/// itself plus its sequence numbers.
const BLOCK_STRIDE: usize = 1 + SEQ_WORDS;

/// How many of the newest ids, `(max − ADVERT_IDS, max]`, the advert holds
/// sequence numbers for.
const ADVERT_IDS: u64 = 24;

/// The advert's word slot of the aligned word `aligned`.
#[inline]
fn word_slot(aligned: u64) -> usize {
    (aligned >> 6) as usize & 1
}

/// The advert's sequence slot of `id`.
#[inline]
fn seq_slot(id: u64) -> usize {
    (id % ADVERT_IDS) as usize
}

/// The advert line: the buffer's head, kept exact on every insert and
/// evict (see the module docs).
#[derive(Debug, Default, Clone)]
struct Advert {
    /// Availability words of the word holding `max` and the word below it,
    /// slot `(aligned >> 6) & 1`.
    words: [u64; 2],
    /// Sequence numbers of the held ids in `(max − ADVERT_IDS, max]`, slot
    /// `id % ADVERT_IDS` (meaningful only where the id is held).
    #[expect(clippy::cast_possible_truncation, reason = "ADVERT_IDS is 24")]
    seqs: [u16; ADVERT_IDS as usize],
}

/// FIFO buffer of segment ids with O(1) membership and position queries and
/// word-level availability access.
#[derive(Debug, Default, Clone)]
#[repr(C, align(64))]
pub struct FifoBuffer {
    /// Arrival ring, `capacity` slots: each id's low 16 bits, oldest at
    /// `head` (see *Resolving a tag* in the module docs).
    ring: Box<[u16]>,
    /// The window block: `cap` availability words over
    /// `[base, base + 64·cap)`, then `64·cap` epoch-relative arrival sequence
    /// numbers packed four to a `u64` (valid only where the availability bit
    /// is set).  `cap = window.len() / BLOCK_STRIDE`.
    window: Box<[u64]>,
    /// First id covered by the bitmap; always a multiple of 64.
    base: u64,
    /// Greatest held id; 0 while empty, when the advert words are empty
    /// too.
    max: u64,
    /// Sequence number the next insert will receive; kept ≤ [`EPOCH_LIMIT`]
    /// by renormalisation.
    next_seq: u32,
    /// Number of epoch renormalisations performed so far.
    epochs: u32,
    /// Availability words in use (a prefix of the reserved ones).
    words: u32,
    /// Ring slot of the oldest arrival.
    head: u16,
    /// Segments held.
    len: u16,
    /// The second cache line.
    advert: Advert,
}

impl PartialEq for FifoBuffer {
    fn eq(&self, other: &Self) -> bool {
        // Two buffers are equal when they would behave identically: same
        // capacity and same segments in the same arrival order.  The bitmap
        // window placement and the epoch anchoring are implementation
        // details (so are free ring slots and where the head sits).
        self.capacity() == other.capacity()
            && self.len == other.len
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
            ring: vec![0; capacity].into_boxed_slice(),
            ..FifoBuffer::default()
        }
    }

    /// Maximum number of segments the buffer can hold.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.ring.len()
    }

    /// Number of segments currently held.
    #[inline]
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// True when the buffer holds no segments.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of sequence-epoch renormalisations performed so far.
    ///
    /// Grows by one per 2¹⁶ arrivals in steady state; useful to assert that
    /// a test actually crossed an epoch boundary.
    pub fn epochs(&self) -> u64 {
        u64::from(self.epochs)
    }

    /// Reserved availability words (the window block's `cap`).
    #[inline]
    fn reserved_words(&self) -> usize {
        self.window.len() / BLOCK_STRIDE
    }

    /// The availability words in use.
    #[inline]
    fn words(&self) -> &[u64] {
        &self.window[..self.words as usize]
    }

    /// The sequence number stored for window offset `offset`.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the packed sequence read keeps one 16-bit lane by design"
    )]
    fn seq(&self, offset: usize) -> u16 {
        let packed = self.window[self.reserved_words() + offset / 4];
        (packed >> (offset % 4 * 16)) as u16
    }

    fn set_seq(&mut self, offset: usize, seq: u16) {
        let shift = offset % 4 * 16;
        let packed = &mut self.window[self.reserved_words() + offset / 4];
        *packed = (*packed & !(0xffff << shift)) | (u64::from(seq) << shift);
    }

    /// Ring slot `i` places after the head.
    #[inline]
    fn ring_slot(&self, i: usize) -> usize {
        let slot = usize::from(self.head) + i;
        if slot >= self.ring.len() {
            slot - self.ring.len()
        } else {
            slot
        }
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "u64 to usize never narrows: the crate root asserts 64-bit usize"
    )]
    fn offset_of(&self, id: u64) -> Option<usize> {
        if id < self.base {
            return None;
        }
        let offset = (id - self.base) as usize;
        if offset < self.words().len() * 64 {
            Some(offset)
        } else {
            None
        }
    }

    /// True when `segment` is currently held (read from the advert inside
    /// the head, see `advert_word`).
    #[inline]
    pub fn contains(&self, segment: SegmentId) -> bool {
        let id = segment.value();
        (self.advert_word(id & !63) >> (id % 64)) & 1 == 1
    }

    /// The 64 availability bits covering `[aligned, aligned + 63]`
    /// (`aligned` must be a multiple of 64; ids outside the window read 0),
    /// read from the heap window.
    ///
    /// This is the peer's buffer map, maintained incrementally: neighbours
    /// intersect these words with their own "needed" windows to enumerate
    /// candidate segments without per-id probing.  Hot readers go through
    /// `advert_word`, which answers the head from the struct itself.
    #[inline]
    pub fn availability_word(&self, aligned: u64) -> u64 {
        debug_assert_eq!(aligned % 64, 0);
        if aligned < self.base {
            return 0;
        }
        self.words()
            .get(((aligned - self.base) / 64) as usize)
            .copied()
            .unwrap_or(0)
    }

    /// [`availability_word`](Self::availability_word) read from the advert
    /// line: words above the maximum are 0 and the word holding the maximum
    /// and the word below it are copies kept in the struct, so only older
    /// words fall back to the heap window.
    #[inline]
    pub(crate) fn advert_word(&self, aligned: u64) -> u64 {
        debug_assert_eq!(aligned % 64, 0);
        let top = self.max & !63;
        if aligned > top {
            return 0;
        }
        if top - aligned <= 64 {
            return self.advert.words[word_slot(aligned)];
        }
        self.availability_word(aligned)
    }

    /// True when the id at window offset `offset` is held.
    #[inline]
    fn held_at(&self, offset: usize) -> bool {
        (self.window[offset / 64] >> (offset % 64)) & 1 == 1
    }

    /// Window offset of the held id `age` places after the ring's head.
    #[inline(always)]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a tag is an id's low 16 bits by design"
    )]
    fn resolve(&self, age: usize) -> usize {
        let offset = usize::from(self.ring[self.ring_slot(age)].wrapping_sub(self.base as u16));
        if self.words().len() * 64 <= TAG_SPAN {
            offset
        } else {
            self.resolve_wide(offset, age)
        }
    }

    /// [`resolve`](Self::resolve) for a window wider than [`TAG_SPAN`]: of
    /// the held candidates `low + k·2¹⁶`, the one whose sequence number
    /// is `next_seq − len + age`.
    #[cold]
    #[inline(never)]
    fn resolve_wide(&self, low: usize, age: usize) -> usize {
        let seq = self.next_seq as usize - self.len() + age;
        (low..self.words().len() * 64)
            .step_by(TAG_SPAN)
            .find(|&offset| self.held_at(offset) && usize::from(self.seq(offset)) == seq)
            .expect("every ring slot names a held id by its sequence number")
    }

    /// Drops dead (all-zero) leading words, sliding the window base up.
    fn compact_leading_zeros(&mut self) {
        let zeros = self.words().iter().take_while(|&&w| w == 0).count();
        let len = self.words().len();
        if zeros == 0 || zeros == len {
            return;
        }
        let seqs = self.reserved_words();
        self.window.copy_within(zeros..len, 0);
        self.window
            .copy_within(seqs + zeros * SEQ_WORDS..seqs + len * SEQ_WORDS, seqs);
        self.words = crate::cast::narrow(len - zeros, "window words within MAX_SPAN_IDS");
        self.base += (zeros as u64) * 64;
    }

    /// Grows the window to `new_len` words, the new words and their
    /// sequence numbers zeroed, and the reserved words to exactly `new_len`
    /// when they do not suffice: window growth is rare and self-limiting
    /// (compaction reclaims dead words), so exact reservations keep the
    /// steady-state footprint at the true high-water mark instead of up to
    /// 2× of it.
    fn grow_window(&mut self, new_len: usize) {
        let old_len = self.words().len();
        debug_assert!(new_len > old_len);
        let reserved = self.reserved_words();
        if new_len > reserved {
            let mut block = vec![0; new_len * BLOCK_STRIDE].into_boxed_slice();
            block[..old_len].copy_from_slice(&self.window[..old_len]);
            block[new_len..new_len + old_len * SEQ_WORDS]
                .copy_from_slice(&self.window[reserved..reserved + old_len * SEQ_WORDS]);
            self.window = block;
        } else {
            self.window[old_len..new_len].fill(0);
            self.window[reserved + old_len * SEQ_WORDS..reserved + new_len * SEQ_WORDS].fill(0);
        }
        self.words = crate::cast::narrow(new_len, "window words within MAX_SPAN_IDS");
    }

    /// Grows/slides the window so `id` is covered (out of line: inserts
    /// call it only for an id outside the window).
    ///
    /// # Panics
    /// Panics when covering `id` would stretch the window beyond
    /// [`MAX_SPAN_IDS`].
    #[inline(never)]
    fn ensure_covered(&mut self, id: u64) {
        if self.words == 0 {
            self.base = id & !63;
            self.grow_window(1 + GROWTH_SLACK_WORDS);
            return;
        }
        let old_len = self.words().len();
        if id < self.base {
            // Out-of-order arrival below the window: prepend words.
            assert!(
                self.base + old_len as u64 * 64 - (id & !63) <= MAX_SPAN_IDS,
                "FifoBuffer id span would exceed {MAX_SPAN_IDS} ids (inserting {id} below window base {}); \
                 this buffer is designed for stream-local segment ids",
                self.base
            );
            let new_base = id & !63;
            let shift = ((self.base - new_base) / 64) as usize;
            self.grow_window(old_len + shift);
            let seqs = self.reserved_words();
            self.window.copy_within(0..old_len, shift);
            self.window[..shift].fill(0);
            self.window
                .copy_within(seqs..seqs + old_len * SEQ_WORDS, seqs + shift * SEQ_WORDS);
            self.window[seqs..seqs + shift * SEQ_WORDS].fill(0);
            self.base = new_base;
            return;
        }
        let needed = ((id - self.base) / 64) as usize + 1;
        if needed <= old_len {
            return;
        }
        // Reclaim dead leading words before growing; in steady state the
        // window slides with the stream and this avoids any allocation.
        self.compact_leading_zeros();
        let needed = ((id - self.base) / 64) as usize + 1;
        if needed > self.words().len() {
            assert!(
                (needed as u64) * 64 <= MAX_SPAN_IDS,
                "FifoBuffer id span would exceed {MAX_SPAN_IDS} ids (inserting {id} with window base {}); \
                 this buffer is designed for stream-local segment ids",
                self.base
            );
            self.grow_window(needed + GROWTH_SLACK_WORDS);
        }
    }

    /// Rescans the window for the greatest held id and rebuilds the advert
    /// around it.
    #[cold]
    fn recompute_max(&mut self) {
        let base = self.base;
        let top = self
            .words()
            .iter()
            .enumerate()
            .rev()
            .find(|&(_, &w)| w != 0);
        if let Some((i, &word)) = top {
            self.max = base + (i as u64) * 64 + 63 - u64::from(word.leading_zeros());
        }
        self.refresh_advert();
    }

    /// Rebuilds the whole advert line from the heap window (the rare
    /// full refresh: a recomputed maximum or a renormalised epoch).
    #[cold]
    fn refresh_advert(&mut self) {
        if self.len == 0 {
            return;
        }
        let top = self.max & !63;
        let slot = word_slot(top);
        self.advert.words[slot] = self.availability_word(top);
        self.advert.words[slot ^ 1] = top
            .checked_sub(64)
            .map_or(0, |below| self.availability_word(below));
        for id in self.max.saturating_sub(ADVERT_IDS - 1)..=self.max {
            if let Some(offset) = self.offset_of(id) {
                if self.held_at(offset) {
                    self.advert.seqs[seq_slot(id)] = self.seq(offset);
                }
            }
        }
    }

    // fss-lint: hot-path
    /// Removes and returns the oldest arrival (the FIFO victim).
    #[inline(always)]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "ring slots are < capacity < 2^16, asserted by FifoBuffer::new"
    )]
    fn evict_oldest(&mut self) -> SegmentId {
        assert!(self.len > 0, "non-empty when evicting");
        let offset = self.resolve(0);
        self.head = self.ring_slot(1) as u16;
        self.len -= 1;
        let id = self.base + offset as u64;
        let bit = 1u64 << (offset % 64);
        self.window[offset / 64] &= !bit;
        if self.len == 0 {
            self.max = 0;
            self.advert.words = [0; 2];
        } else if id == self.max {
            self.recompute_max();
        } else {
            let (top, aligned) = (self.max & !63, id & !63);
            if top - aligned <= 64 {
                self.advert.words[word_slot(aligned)] &= !bit;
            }
        }
        SegmentId(id)
    }

    /// Re-anchors all live sequence numbers to a fresh epoch: subtracts the
    /// oldest live sequence number from every live entry so the range
    /// becomes `[0, len)` and the counter restarts at `len`.  One pass over
    /// the set bits, no allocation.
    #[cold]
    fn renormalise_epoch(&mut self) {
        let live = u32::from(self.len);
        let delta = self.next_seq - live;
        if delta == 0 {
            return;
        }
        if live > 0 {
            // Live sequence numbers are exactly [delta, next_seq), so the
            // u16 subtraction below can never underflow; with live > 0 the
            // delta itself is at most EPOCH_LIMIT − 1 and fits a u16.
            let delta: u16 = crate::cast::narrow(delta, "epoch delta bounded by live range");
            for i in 0..self.words().len() {
                let mut bits = self.window[i];
                while bits != 0 {
                    let offset = i * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    self.set_seq(offset, self.seq(offset) - delta);
                }
            }
        }
        self.next_seq = live;
        self.epochs += 1;
        self.refresh_advert();
    }

    /// Inserts a segment.  Returns the evicted segment if the buffer was full,
    /// or `None`.  Re-inserting an already-held segment is a no-op.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "hot insert path: next_seq < EPOCH_LIMIT (2^16) is asserted immediately above the u16 store, and a ring tag is the id's low 16 bits by design"
    )]
    pub fn insert(&mut self, segment: SegmentId) -> Option<SegmentId> {
        if self.contains(segment) {
            return None;
        }
        let evicted = if self.len() == self.capacity() {
            Some(self.evict_oldest())
        } else {
            None
        };
        let id = segment.value();
        if self.offset_of(id).is_none() {
            self.ensure_covered(id);
        }
        if self.next_seq == EPOCH_LIMIT {
            self.renormalise_epoch();
        }
        debug_assert!(self.next_seq < EPOCH_LIMIT);
        let offset = (id - self.base) as usize;
        let bit = 1u64 << (offset % 64);
        self.window[offset / 64] |= bit;
        let seq = self.next_seq as u16;
        self.set_seq(offset, seq);
        self.next_seq += 1;
        let tail = self.ring_slot(self.len());
        self.ring[tail] = id as u16;

        // The advert: a rising maximum first clears the word slots it
        // moves onto (nothing below the old maximum's line changes, and the
        // sequence slots of ids above the old maximum are not held yet).
        // An empty buffer has `max == 0` and empty advert words, so its
        // first insert needs no case of its own.
        if id > self.max {
            let (old_top, new_top) = (self.max & !63, id & !63);
            if new_top != old_top {
                self.advert.words[word_slot(new_top)] = 0;
                if new_top - old_top > 64 {
                    self.advert.words[word_slot(new_top - 64)] = 0;
                }
            }
            self.max = id;
        }
        self.len += 1;
        let (top, aligned) = (self.max & !63, id & !63);
        if top - aligned <= 64 {
            self.advert.words[word_slot(aligned)] |= bit;
        }
        if self.max - id < ADVERT_IDS {
            self.advert.seqs[seq_slot(id)] = seq;
        }
        evicted
    }

    /// Evicts the `n` oldest arrivals without inserting anything, returning
    /// how many were removed (fewer than `n` when the buffer runs out).
    ///
    /// Positions of the surviving segments are unchanged — distance from
    /// the tail does not depend on how many older segments exist.  Drives
    /// the window's shrink-then-regrow paths in the tests.
    #[cfg(test)]
    fn shrink_front(&mut self, n: usize) -> usize {
        let count = n.min(self.len());
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
        if !self.held_at(offset) {
            return None;
        }
        // Exact: live seqs lie in [next_seq − len, next_seq), so the
        // difference is within [1, len] — no wrapping involved.
        Some((self.next_seq - u32::from(self.seq(offset))) as usize)
    }

    /// [`position_from_tail`](Self::position_from_tail) of a segment the
    /// caller has already seen held — its bit is set in an
    /// [`availability_word`](Self::availability_word) of this buffer — so
    /// the membership test is skipped (checked in debug builds only).
    /// Reads the heap window.
    #[inline]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "a held segment lies in the window, less than MAX_SPAN_IDS (2^22) past base"
    )]
    pub(crate) fn held_position(&self, segment: SegmentId) -> u32 {
        debug_assert!(self.contains(segment), "{segment} is not held");
        let offset = (segment.value() - self.base) as usize;
        self.next_seq - u32::from(self.seq(offset))
    }

    /// [`held_position`](Self::held_position) read from the advert line
    /// for the newest 24 ids, from the heap window for older ones.
    #[inline]
    pub(crate) fn advert_position(&self, segment: SegmentId) -> u32 {
        debug_assert!(self.contains(segment), "{segment} is not held");
        let id = segment.value();
        if self.max - id < ADVERT_IDS {
            self.next_seq - u32::from(self.advert.seqs[seq_slot(id)])
        } else {
            self.held_position(segment)
        }
    }

    /// Prefetches the lines an [`insert`](Self::insert) of `segment` will
    /// touch: the segment's availability word and sequence entry, the
    /// window's first word, and the ring's head slot (evicted when full)
    /// and tail slot (written by the append).  Reads only the struct
    /// itself; ids outside the window prefetch only the window's first word
    /// and the ring slots.
    #[inline]
    pub(crate) fn prefetch_insert(&self, segment: SegmentId) {
        if let Some(offset) = self.offset_of(segment.value()) {
            prefetch_read(&self.window[offset / 64]);
            prefetch_read(&self.window[self.reserved_words() + offset / 4]);
        }
        if let Some(word) = self.window.first() {
            prefetch_read(word);
        }
        if self.capacity() > 0 {
            prefetch_read(&self.ring[usize::from(self.head)]);
            prefetch_read(&self.ring[self.ring_slot(self.len())]);
        }
    }
    // fss-lint: end

    /// Iterator over held segment ids in ascending id order (no allocation:
    /// walks the availability words).
    #[cfg(test)]
    fn ids(&self) -> impl Iterator<Item = SegmentId> + '_ {
        let base = self.base;
        self.words()
            .iter()
            .enumerate()
            .flat_map(move |(i, &word)| BitIter {
                word,
                base: base + (i as u64) * 64,
            })
    }

    /// Iterator over held segments in arrival order (oldest first).
    pub fn arrivals(&self) -> impl Iterator<Item = SegmentId> + '_ {
        (0..self.len()).map(move |age| SegmentId(self.base + self.resolve(age) as u64))
    }

    /// Number of held segments with ids in `[from, to]` (inclusive):
    /// a popcount over the covered words (advert reads, so a range inside
    /// the head never touches the heap).
    pub fn count_in_range(&self, from: SegmentId, to: SegmentId) -> usize {
        if to < from || self.len == 0 {
            return 0;
        }
        let lo = from.value().max(self.base);
        let hi = to.value().min(self.max);
        if hi < lo {
            return 0;
        }
        let mut count = 0usize;
        let mut word_base = lo & !63;
        while word_base <= hi {
            let mut word = self.advert_word(word_base);
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
    /// must collapse to two loads from the struct's first line so the chunk
    /// walk stays bound by the prefetched column reads, not by call
    /// overhead.
    #[inline]
    pub fn max_id(&self) -> Option<SegmentId> {
        (self.len > 0).then_some(SegmentId(self.max))
    }

    /// Reserved heap bytes per component (ring / window / sequence array).
    ///
    /// `#[inline]` for the shard-major meter sweep, which calls this per
    /// active peer right after prefetching the buffer struct.
    #[inline]
    pub fn mem_breakdown(&self) -> BufferMemBreakdown {
        let reserved = self.reserved_words();
        BufferMemBreakdown {
            ring_bytes: self.capacity() * std::mem::size_of::<u16>(),
            window_bytes: reserved * std::mem::size_of::<u64>(),
            seq_bytes: reserved * 64 * std::mem::size_of::<u16>(),
        }
    }
}

/// Iterator over the set bits of one availability word.
#[cfg(test)]
struct BitIter {
    word: u64,
    base: u64,
}

#[cfg(test)]
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
        assert_eq!(b.position_from_tail(SegmentId(2)), Some(3));
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
            // Below the base, inside, at the head, past the window.
            for id in [0, 1, 130, 450, 499, 500, 10_000, u64::MAX] {
                buffer.prefetch_insert(SegmentId(id));
            }
            assert_eq!(*buffer, before);
            assert_eq!(buffer.max_id(), before.max_id());
            for id in buffer.ids() {
                assert_eq!(
                    Some(buffer.held_position(id) as usize),
                    buffer.position_from_tail(id)
                );
                assert_eq!(buffer.advert_position(id), buffer.held_position(id));
            }
        }
    }

    /// The struct is exactly two cache lines, the core line and the advert
    /// line, and starts on a line boundary.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn layout_is_two_aligned_cache_lines() {
        assert_eq!(std::mem::size_of::<FifoBuffer>(), 128);
        assert_eq!(std::mem::align_of::<FifoBuffer>(), 64);
        assert_eq!(std::mem::offset_of!(FifoBuffer, advert), 64);
        assert_eq!(std::mem::size_of::<Advert>(), 64);
    }

    #[test]
    fn advert_serves_the_head_and_falls_back_below_it() {
        let mut b = FifoBuffer::new(600);
        for i in 0..300u64 {
            b.insert(SegmentId(i));
        }
        // The max (299) sits in word 256; words 256 and 192 are advertised,
        // words above the max read 0 and older words come from the heap.
        for aligned in (0..512u64).step_by(64) {
            assert_eq!(b.advert_word(aligned), b.availability_word(aligned));
        }
        assert_eq!(b.advert.words[word_slot(256)], b.availability_word(256));
        assert_eq!(b.advert.words[word_slot(192)], u64::MAX);
        for id in [0u64, 200, 275, 276, 298, 299] {
            assert_eq!(b.advert_position(SegmentId(id)), 300 - id as u32);
        }
        // A jump of more than two words leaves nothing of the old head in
        // the advert.
        b.insert(SegmentId(1_000));
        assert_eq!(b.advert_word(960), 1 << (1_000 - 960));
        assert_eq!(b.advert_word(896), 0);
        assert_eq!(b.advert_word(256), b.availability_word(256));
        assert_eq!(b.advert_position(SegmentId(1_000)), 1);
        assert_eq!(b.advert_position(SegmentId(299)), 2);
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
            b.words().len() <= 4 + 2 * GROWTH_SLACK_WORDS,
            "window kept {} words for a 64-id span",
            b.words().len()
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
        assert_eq!(mem.ring_bytes, b.ring.len() * 2);
        assert_eq!(b.ring.len(), b.capacity());
        // One block holds the reserved words and 64 `u16` sequence numbers
        // per reserved word; the meter splits it into the two components.
        assert_eq!(b.window.len(), b.reserved_words() * BLOCK_STRIDE);
        assert!(b.words().len() <= b.reserved_words());
        assert_eq!(mem.window_bytes, b.reserved_words() * 8);
        assert_eq!(mem.seq_bytes, b.reserved_words() * 64 * 2);
    }

    /// Ring tags are ids' low 16 bits, so ids 2¹⁶ apart share one.  With a
    /// window wider than 2¹⁶ ids and colliding tags held together, every
    /// eviction and every arrival read resolves through the sequence
    /// array, across an epoch renormalisation; a `VecDeque` is the model.
    #[test]
    fn tag_ring_is_fifo_across_wide_spans() {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        use std::collections::VecDeque;
        const CAPACITY: usize = 8;
        let mut rng = SmallRng::seed_from_u64(0x7a6);
        let mut b = FifoBuffer::new(CAPACITY);
        let mut model: VecDeque<u64> = VecDeque::new();
        let mut head = 4 * TAG_SPAN as u64;
        let (mut wide_steps, mut collision_steps) = (0u32, 0u32);
        for _ in 0..3 * EPOCH_LIMIT / 2 {
            let id = match rng.gen_range(0..8) {
                0..=3 => {
                    head += 1;
                    head
                }
                // A tag twin of a recent id, below the window or inside it.
                4..=6 => head - rng.gen_range(0..4u64) - TAG_SPAN as u64 * rng.gen_range(1..=3u64),
                // A held id again: a no-op.
                _ => model.back().copied().unwrap_or(head),
            };
            let mut expected = None;
            if !model.contains(&id) {
                model.push_back(id);
                if model.len() > CAPACITY {
                    expected = model.pop_front();
                }
            }
            assert_eq!(
                b.insert(SegmentId(id)),
                expected.map(SegmentId),
                "inserting {id}"
            );
            assert!(b.arrivals().map(SegmentId::value).eq(model.iter().copied()));
            if b.words().len() * 64 > TAG_SPAN {
                wide_steps += 1;
                let mut tags: Vec<u16> = model.iter().map(|&id| id as u16).collect();
                tags.sort_unstable();
                tags.dedup();
                collision_steps += u32::from(tags.len() < model.len());
            }
        }
        assert!(b.epochs() >= 1, "the run must cross an epoch");
        assert!(wide_steps > 10_000, "the wide path ran {wide_steps} times");
        assert!(
            collision_steps > 10_000,
            "colliding tags held {collision_steps} times"
        );
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

    /// Every advert read equals its heap read: each aligned word from two
    /// words below the window to two past it, and each held id's position.
    fn check_advert(b: &FifoBuffer) -> Result<(), proptest::TestCaseError> {
        let first = b.base.saturating_sub(128);
        let last = b.base + 64 * b.words().len() as u64 + 128;
        for aligned in (first..=last).step_by(64) {
            let (advert, heap) = (b.advert_word(aligned), b.availability_word(aligned));
            proptest::prop_assert!(
                advert == heap,
                "word {aligned}: advert {advert:#x}, heap {heap:#x}, max {:?}",
                b.max_id()
            );
        }
        for id in b.ids() {
            let (advert, heap) = (b.advert_position(id), b.position_from_tail(id));
            proptest::prop_assert!(
                Some(advert as usize) == heap,
                "position of {id}: advert {advert}, heap {heap:?}"
            );
        }
        proptest::prop_assert_eq!(b.max_id(), b.ids().last());
        Ok(())
    }

    /// One random insert / `shrink_front` history, checked with
    /// [`check_advert`] after every step: streaming, out-of-order and
    /// duplicate ids, jumps of more than 128 ids up and down, evictions of
    /// the maximum, drains to empty, clones and (in a quarter of the seeds)
    /// a run of more than 2¹⁶ inserts across an epoch renormalisation.
    fn advert_scenario(seed: u64) -> Result<(), proptest::TestCaseError> {
        use rand::rngs::SmallRng;
        use rand::{Rng, SeedableRng};
        let mut rng = SmallRng::seed_from_u64(seed);
        check_advert(&FifoBuffer::default())?;
        let capacity = if rng.gen_range(0..4) == 0 {
            rng.gen_range(1..=4)
        } else {
            rng.gen_range(1..=48)
        };
        let mut b = FifoBuffer::new(capacity);
        check_advert(&b)?;
        let mut burst = rng.gen_range(0..4) == 0;
        let mut head = rng.gen_range(0..1_000u64);
        for _ in 0..rng.gen_range(1..=300) {
            match rng.gen_range(0..16) {
                0..=5 => {
                    head += 1;
                    b.insert(SegmentId(head));
                }
                6..=9 => {
                    b.insert(SegmentId(head.saturating_sub(rng.gen_range(0..80u64))));
                }
                10 => {
                    head += rng.gen_range(129..400u64);
                    b.insert(SegmentId(head));
                }
                11 => {
                    b.insert(SegmentId(head.saturating_sub(rng.gen_range(100..600u64))));
                }
                12 => {
                    // Make a fresh maximum the oldest arrival, add younger
                    // lower ids, then evict it.
                    head += rng.gen_range(1..200u64);
                    b.insert(SegmentId(head));
                    b.shrink_front(b.len() - 1);
                    for _ in 0..rng.gen_range(1..=capacity.min(30)) {
                        b.insert(SegmentId(head - rng.gen_range(1..=head.min(90))));
                    }
                    b.shrink_front(1);
                }
                13 => {
                    b.shrink_front(rng.gen_range(0..=capacity));
                }
                14 => {
                    if rng.gen_range(0..4) == 0 {
                        b = b.clone();
                    } else {
                        b.shrink_front(capacity);
                    }
                }
                _ => {
                    if !burst {
                        continue;
                    }
                    burst = false;
                    let epochs = b.epochs();
                    let mut inserts = 0u64;
                    while b.epochs() == epochs || inserts <= u64::from(EPOCH_LIMIT) {
                        head += 1;
                        b.insert(SegmentId(head));
                        inserts += 1;
                        if b.next_seq < 4 || b.next_seq > EPOCH_LIMIT - 4 {
                            check_advert(&b)?;
                        }
                    }
                    proptest::prop_assert!(b.epochs() > epochs);
                }
            }
            check_advert(&b)?;
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// The advert line answers exactly what the heap window answers.
        #[test]
        fn prop_advert_matches_heap(seed in 0u64..u64::MAX) {
            advert_scenario(seed)?;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(20_000))]
        /// Soak of [`prop_advert_matches_heap`].
        #[test]
        #[ignore = "soak: 20k advert histories (run with --release -- --ignored)"]
        fn prop_advert_soak(seed in 0u64..u64::MAX) {
            advert_scenario(seed)?;
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

        /// The compact layout (2-byte ring tags, u16 epoch seqs, sliding
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
            let positions: Vec<Option<usize>> =
                probe.iter().map(|&s| compact.position_from_tail(s)).collect();
            proptest::prop_assert_eq!(positions, expected);
            proptest::prop_assert_eq!(compact.max_id(), naive.ids().last().copied());
        }
    }
}
