//! Reusable per-period working memory (the "scratch arena").
//!
//! A straight-line period re-allocates the world every scheduling period:
//! the active-peer list, a neighbour list per node, a supplier list per
//! candidate segment, a map of outbound budgets, and the per-node request
//! vectors.  At production scale (the ROADMAP's million-user scenarios)
//! those allocations dominate the period cost.  This module holds every
//! buffer the hot path needs, all owned by the system and reused across
//! periods, so a steady-state period performs **zero heap allocations**:
//!
//! * [`PeriodScratch`] — dense (indexed by [`PeerId`]) rate and
//!   [`Outbound`] tables, the active list, the chunk plan and the
//!   ratio-track column,
//! * [`WorkerScratch`] — the per-chunk state of the two pool dispatches of
//!   a period: a reusable [`SchedulingContext`] (a neighbour table, one
//!   flat supplier array and a span per candidate), the need/availability
//!   bitset words and each neighbour's cached window words, the
//!   neighbour-to-row map, the scheduler's own [`SchedulerScratch`], the
//!   chunk's grants and its QoE lane.
//!
//! Candidate segments are enumerated by word-level bitset intersection of
//! the peers' availability windows, which every
//! [`FifoBuffer`](crate::buffer::FifoBuffer) maintains incrementally (one
//! bit flip per insert/evict) — nothing is rebuilt per period.  The OR pass
//! that finds the available ids keeps each neighbour's window words, so the
//! suppliers are filled **candidate-major** from those cached words: the
//! candidate's bit of each neighbour's word forms a holder mask, whose set
//! bits (neighbour order) are appended straight to the flat supplier array.
//! A neighbour's position is read only at the candidates it actually holds,
//! and it gets a neighbour-table row (its rate from the [`Outbound`]
//! column, its capacity from its buffer) only at its first supplier hit.
//! Each candidate's eq. 6 maximum and eq. 8 product are folded as its
//! suppliers are appended, so the scheduler never walks the suppliers to
//! score.  Words and positions both come from the buffers' advert lines,
//! so a neighbour whose head covers the range costs its two struct lines
//! and no heap read.
//!
//! The structures only ever grow (to a steady-state high-water mark); the
//! differential tests assert the resulting [`SystemReport`]s are identical
//! to the executable specification in `fss-spec`, and the
//! allocation-counter test in `fss-bench` asserts the zero-allocation
//! property.
//!
//! [`SystemReport`]: crate::system::SystemReport

use crate::config::GossipConfig;
use crate::qoe::QoeLane;
use crate::segment::SessionDirectory;
use crate::store::{PeerRef, PeerStore};
use crate::transfer::{DeliveredSegment, GrantScratch};
use fss_core::{
    SchedulerScratch, SchedulingContext, SegmentId, SegmentRequest, SupplierFold, SupplierInfo,
};
use fss_overlay::PeerId;

/// Per-chunk state of a period: everything one chunk of the scheduling
/// pass and of the fused walk writes, so chunks never share a byte.
#[derive(Debug, Default)]
pub struct WorkerScratch {
    /// The reusable scheduling context handed to the scheduler.
    pub ctx: SchedulingContext,
    /// Bits of the node's needed-but-missing ids over the current window.
    need_words: Vec<u64>,
    /// OR of the neighbours' availability words over the same window.
    avail_words: Vec<u64>,
    /// Each neighbour's availability words over the same window,
    /// neighbours × words (zero for an empty neighbour).
    neighbour_words: Vec<u64>,
    /// Per neighbour index: its row in `ctx.neighbours`, or [`NO_ROW`]
    /// before its first supplier hit.  Reset once per peer.
    slot_of: Vec<u32>,
    /// The scheduler's own reusable state.
    pub sched: SchedulerScratch,
    /// One peer's scheduled requests (the scheduler's output buffer).
    pub requests: Vec<SegmentRequest>,
    /// Working memory of the per-link grant step.
    pub grant: GrantScratch,
    /// The chunk's delivery slice, which the fused walk applies: its
    /// grants, requester-ascending and within one requester in grant
    /// order (supplier, then submission order); in faulty event mode, the
    /// arrivals that land inside the period, in arrival order.
    pub grants: Vec<DeliveredSegment>,
    /// Control traffic observed by this chunk.
    pub control_bits: u64,
    /// Event mode: requests suppressed by a lost buffer-map advertisement.
    pub requests_blinded: u64,
    /// Event mode: requests lost on the request leg.
    pub requests_lost: u64,
    /// The chunk's QoE row and event buffers (fused walk).
    pub qoe: QoeLane,
    /// Switch-countable peers of the chunk that have not completed the
    /// switch (fused walk).
    pub waiting: u64,
    /// Switch-countable peers of the chunk (fused walk).
    pub counted: usize,
    /// `(first peer, peer count)` of the chunk the buffers were last sized
    /// for — see [`plan`](Self::plan).
    planned: (PeerId, usize),
}

/// [`WorkerScratch::slot_of`] of a neighbour that has no row yet.
const NO_ROW: u32 = u32::MAX;

impl WorkerScratch {
    /// Opens the slot for a scheduling chunk over `chunk`: clears the
    /// per-period outputs and, when the chunk plan moved, sizes the grant
    /// and QoE buffers for the chunk's peers.  `grant_hint(p)` is the most
    /// grants a peer is expected to receive in a period; the reservation is
    /// only a hint, so the caller bounds it (a burst beyond it grows the
    /// buffer).
    pub fn plan<F: Fn(PeerId) -> usize>(&mut self, chunk: &[PeerId], grant_hint: F) {
        self.grants.clear();
        self.control_bits = 0;
        self.requests_blinded = 0;
        self.requests_lost = 0;
        let extent = (chunk.first().copied().unwrap_or(0), chunk.len());
        if self.planned != extent {
            self.planned = extent;
            let grants: usize = chunk.iter().map(|&p| grant_hint(p)).sum();
            self.grants.reserve(grants);
            self.qoe.reserve(chunk.len());
        }
    }

    // fss-lint: hot-path
    /// Enumerates the candidates of one id range by word-level bitset
    /// intersection: `need = range_mask AND NOT own_held`,
    /// `avail = OR(neighbour held)`, candidates = `need AND avail`.
    ///
    /// The OR pass keeps each neighbour's words in `neighbour_words`.
    /// Candidates are then pushed in ascending id order, each with its
    /// suppliers **candidate-major**: the candidate's bit of each
    /// neighbour's cached word goes into a holder mask (64 neighbours at a
    /// time), whose set bits are the suppliers in `neighbors` order, so
    /// only actual suppliers' positions are probed.  A supplier's first
    /// hit appends its row (rate from `outbound`) and records it in
    /// `slot_of`; each append folds the candidate's eqs. 6 and 8.  Words
    /// and positions are advert reads, which fall back to the heap window
    /// outside a buffer's head (debug builds check every read against the
    /// heap).  `slot_of` must cover `neighbors`.
    fn candidates_in_range(
        &mut self,
        start: SegmentId,
        end: SegmentId,
        own: PeerRef<'_>,
        neighbors: &[PeerId],
        store: &PeerStore,
        outbound: &[Outbound],
    ) {
        if end < start {
            return;
        }
        let (start, end) = (start.value(), end.value());
        let base = start & !63;
        let words = ((end - base) / 64 + 1) as usize;
        self.need_words.clear();
        self.need_words.resize(words, 0);
        self.avail_words.clear();
        self.avail_words.resize(words, 0);
        self.neighbour_words.clear();
        self.neighbour_words.resize(neighbors.len() * words, 0);

        for (i, need) in self.need_words.iter_mut().enumerate() {
            let word_base = base + (i as u64) * 64;
            let mut mask = u64::MAX;
            if word_base < start {
                mask &= u64::MAX << (start - word_base);
            }
            if word_base + 63 > end {
                mask &= u64::MAX >> (word_base + 63 - end);
            }
            let held = own.buffer().advert_word(word_base);
            debug_assert_eq!(held, own.buffer().availability_word(word_base));
            *need = mask & !held;
        }
        for (&n, row) in neighbors
            .iter()
            .zip(self.neighbour_words.chunks_exact_mut(words))
        {
            let buffer = store.buffer(n);
            if buffer.is_empty() {
                continue;
            }
            for (i, (word, avail)) in row.iter_mut().zip(&mut self.avail_words).enumerate() {
                let aligned = base + (i as u64) * 64;
                *word = buffer.advert_word(aligned);
                debug_assert_eq!(
                    *word,
                    buffer.availability_word(aligned),
                    "advert word {aligned} of {n}"
                );
                *avail |= *word;
            }
        }

        let first = self.ctx.candidates.len();
        let count = neighbors.len();
        for (i, (&need, &avail)) in self.need_words.iter().zip(&self.avail_words).enumerate() {
            let mut bits = need & avail;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                let id = SegmentId(base + (i as u64) * 64 + u64::from(bit));
                // Bit `k` of `held`: neighbour `group + k` holds the
                // candidate.  The suppliers go straight onto the flat array
                // (an iterator through `push_candidate` measured slower
                // here).
                let start = self.ctx.suppliers.len();
                let mut fold = SupplierFold::EMPTY;
                for group in (0..count).step_by(64) {
                    let mut held = 0u64;
                    for k in 0..(count - group).min(64) {
                        let word = self.neighbour_words[(group + k) * words + i];
                        held |= (word >> bit & 1) << k;
                    }
                    while held != 0 {
                        let k = group + held.trailing_zeros() as usize;
                        held &= held - 1;
                        let n = neighbors[k];
                        let buffer = store.buffer(n);
                        let buffer_position = buffer.advert_position(id);
                        debug_assert_eq!(
                            buffer_position,
                            buffer.held_position(id),
                            "advert position of {id}"
                        );
                        if self.slot_of[k] == NO_ROW {
                            self.slot_of[k] = self.ctx.push_neighbour(
                                n,
                                outbound[n as usize].rate,
                                buffer.capacity(),
                            );
                        }
                        let slot = self.slot_of[k];
                        let row = &self.ctx.neighbours[slot as usize];
                        fold.add(row.rate, buffer_position, row.buffer_capacity);
                        self.ctx.suppliers.push(SupplierInfo {
                            slot,
                            buffer_position,
                        });
                    }
                }
                self.ctx.close_candidate(id, start, fold);
            }
        }
        debug_assert!(
            self.ctx.candidates[first..]
                .iter()
                .all(|c| !c.suppliers.is_empty()),
            "avail bit implies a supplier"
        );
    }

    /// Rebuilds `self.ctx` for `node` without allocating.  Returns `false`
    /// when the node has nothing it could request this period.
    ///
    /// The candidates are the node's missing ids of the stream it is
    /// playing (capped to a trailing `2·B` window below the highest id its
    /// neighbours advertise) followed by those of the next discovered
    /// session, in ascending id order; each candidate lists the neighbours
    /// holding it, in `neighbors` order, and carries its eq. 6 and eq. 8
    /// folds.  The neighbour table lists only the neighbours that supply a
    /// candidate, in the order of their first supplier hit, with their
    /// rate from `outbound`.
    ///
    /// The discovery inputs arrive precomputed: `known_sessions` is the
    /// node's *post-discovery* session count for this period (the fused
    /// scheduling pass computes it locally and defers the store write to
    /// the playback walk) and `max_advertised` is the max id over the
    /// neighbours' buffers, gathered once by the caller's chunk walk
    /// instead of re-walking the neighbour list here.
    #[allow(clippy::too_many_arguments)]
    pub fn build_context(
        &mut self,
        node: PeerRef<'_>,
        config: &GossipConfig,
        directory: &SessionDirectory,
        inbound_rate: f64,
        neighbors: &[PeerId],
        store: &PeerStore,
        outbound: &[Outbound],
        known_sessions: usize,
        max_advertised: SegmentId,
    ) -> bool {
        self.ctx.clear_tables();
        if neighbors.is_empty() || inbound_rate <= 0.0 {
            return false;
        }
        let known = crate::peer::known_slice(known_sessions, directory);
        if known.is_empty() {
            return false;
        }
        self.slot_of.clear();
        self.slot_of.resize(neighbors.len(), NO_ROW);

        let id_play = node.id_play();
        let current_idx = known
            .iter()
            .rposition(|s| s.first_segment <= id_play)
            .unwrap_or(0);
        let current = &known[current_idx];
        let next = known.get(current_idx + 1);

        // The current stream capped to a 2·B trailing window, plus the next
        // (new-source) stream once discovered.  Ranges are disjoint and
        // ascending, so candidates come out in id order.
        let current_end = current
            .last_segment
            .unwrap_or(max_advertised)
            .min(max_advertised);
        let window_cap = 2 * config.buffer_capacity as u64;
        let current_start = id_play
            .max(current.first_segment)
            .max(SegmentId(current_end.value().saturating_sub(window_cap)));
        if current_end >= current_start {
            self.candidates_in_range(current_start, current_end, node, neighbors, store, outbound);
        }
        if let Some(next) = next {
            let next_end = next
                .last_segment
                .unwrap_or(max_advertised)
                .min(max_advertised);
            if next_end >= next.first_segment {
                self.candidates_in_range(
                    next.first_segment,
                    next_end,
                    node,
                    neighbors,
                    store,
                    outbound,
                );
            }
        }
        if self.ctx.candidates.is_empty() {
            return false;
        }

        let (old_session, new_session, q1, q2) = match next {
            Some(next) => (
                Some(session_view(current)),
                Some(session_view(next)),
                node.undelivered_in_session(current, max_advertised),
                node.q2_for(next, config.new_source_qs),
            ),
            None => (
                Some(session_view(current)),
                None,
                node.undelivered_in_session(current, max_advertised),
                0,
            ),
        };

        self.ctx.tau_secs = config.tau_secs;
        self.ctx.play_rate = config.play_rate;
        self.ctx.inbound_rate = inbound_rate;
        self.ctx.id_play = id_play;
        self.ctx.startup_q = config.startup_q;
        self.ctx.new_source_qs = config.new_source_qs;
        self.ctx.old_session = old_session;
        self.ctx.new_session = new_session;
        self.ctx.q1 = q1;
        self.ctx.q2 = q2;
        true
    }
    // fss-lint: end
}

fn session_view(session: &crate::segment::Session) -> fss_core::SessionView {
    fss_core::SessionView {
        id: session.id,
        first_segment: session.first_segment,
        last_segment: session.last_segment,
    }
}

/// One peer's outbound side for a period, one dense column entry: the rate
/// the context builder reads at the peer's first supplier hit and the
/// budget the grant step reads share a cache line.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Outbound {
    /// Outbound rate `R(j)` in segments/s.
    pub rate: f64,
    /// Whole-segment outbound budget for the period (0 for an inactive
    /// peer: a departed supplier grants nothing).
    pub budget: usize,
}

/// All reusable buffers of the period loop, owned by the system.
#[derive(Debug, Default)]
pub struct PeriodScratch {
    /// Active peers this period, in id order.
    pub active: Vec<PeerId>,
    /// Discovery pass: max observed id per active peer (aligned with
    /// `active`).
    pub observed_max: Vec<SegmentId>,
    /// Dense per-peer outbound rate and budget.
    pub outbound: Vec<Outbound>,
    /// Dense per-peer inbound rate (segments/s).
    pub inbound_rate: Vec<f64>,
    /// Chunk plan of both pool dispatches of a period (scheduling pass and
    /// fused walk): `(start, end)` index ranges into `active`, one per
    /// chunk.  The chunks follow the shard boundaries, with any shard run
    /// longer than twice the mean split into even pieces; a single-shard
    /// store plans one chunk.
    pub chunks: Vec<(usize, usize)>,
    /// Per-chunk state, one slot per chunk (one entry when sequential).
    pub workers: Vec<WorkerScratch>,
    /// Ratio-track terms `(undelivered S1, delivered S2)` aligned with
    /// `active` — `(0.0, 0.0)` for peers that do not count — written by the
    /// walk chunks and summed serially in ascending order.
    pub ratio_terms: Vec<(f64, f64)>,
}

impl PeriodScratch {
    /// Grows the dense tables to cover `peer_capacity` ids and ensures
    /// `workers` worker slots exist.
    pub fn ensure_capacity(&mut self, peer_capacity: usize, workers: usize) {
        if self.outbound.len() < peer_capacity {
            self.outbound.resize(peer_capacity, Outbound::default());
            self.inbound_rate.resize(peer_capacity, 0.0);
        }
        while self.workers.len() < workers {
            self.workers.push(WorkerScratch::default());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::FifoBuffer;
    use crate::peer::known_slice;
    use crate::segment::Session;
    use fss_core::{replacement_fraction, SessionView};
    use rand::rngs::SmallRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    /// A buffer of `capacity` fed a random subset of one id range in
    /// `[0, head]` (half the time ending near the head, where neighbours
    /// overlap), sometimes ascending and sometimes shuffled, so FIFO
    /// eviction leaves gappy windows over several words.
    fn random_buffer(rng: &mut SmallRng, capacity: usize, head: u64) -> FifoBuffer {
        let mut buffer = FifoBuffer::new(capacity);
        let lo = rng.gen_range(0..=head);
        let hi = if rng.gen_range(0..2) == 0 {
            head - rng.gen_range(0..=(head - lo).min(8))
        } else {
            rng.gen_range(lo..=head)
        };
        let sparsity = rng.gen_range(1..=4u64);
        let mut ids: Vec<u64> = (lo..=hi)
            .filter(|_| rng.gen_range(0..sparsity) == 0)
            .collect();
        if rng.gen_range(0..2) == 0 {
            ids.shuffle(rng);
        }
        for id in ids {
            buffer.insert(SegmentId(id));
        }
        buffer
    }

    /// A context with every supplier expanded to `(peer, rate, position,
    /// capacity)` and each candidate's eq. 6 and eq. 8 folds as bits: the
    /// builder's rows are labels (first-hit order), so contexts are
    /// compared through this view rather than slot by slot.
    #[derive(Debug, PartialEq)]
    struct Expanded {
        scalars: (f64, f64, f64, SegmentId, usize, usize),
        sessions: (Option<SessionView>, Option<SessionView>),
        q1: usize,
        q2: usize,
        candidates: Vec<(SegmentId, Vec<Supplier>, Folds)>,
    }

    /// `(peer, rate, position, capacity)` of one supplier.
    type Supplier = (PeerId, f64, usize, usize);

    /// `(max_rate, rarity)` of one candidate, as `f64::to_bits`.
    type Folds = (u64, u64);

    /// The straight folds of eqs. 6 and 8 over `suppliers`, in order.
    fn folds_of(suppliers: &[Supplier]) -> Folds {
        let max_rate = suppliers.iter().map(|s| s.1).fold(0.0, f64::max);
        let rarity: f64 = suppliers
            .iter()
            .map(|&(_, _, position, capacity)| replacement_fraction(position, capacity))
            .product();
        (max_rate.to_bits(), rarity.to_bits())
    }

    /// Expands `ctx` after checking its neighbour table: rows name distinct
    /// peers and each supplies at least one candidate.
    fn expand(ctx: &SchedulingContext) -> Expanded {
        let mut supplies = vec![false; ctx.neighbours.len()];
        for s in &ctx.suppliers {
            supplies[s.slot as usize] = true;
        }
        assert!(
            supplies.iter().all(|&s| s),
            "idle row in {:?}",
            ctx.neighbours
        );
        let mut peers: Vec<PeerId> = ctx.neighbours.iter().map(|n| n.peer).collect();
        peers.sort_unstable();
        peers.dedup();
        assert_eq!(peers.len(), ctx.neighbours.len(), "a peer with two rows");
        Expanded {
            scalars: (
                ctx.tau_secs,
                ctx.play_rate,
                ctx.inbound_rate,
                ctx.id_play,
                ctx.startup_q,
                ctx.new_source_qs,
            ),
            sessions: (ctx.old_session, ctx.new_session),
            q1: ctx.q1,
            q2: ctx.q2,
            candidates: ctx
                .candidates
                .iter()
                .map(|c| {
                    let suppliers = ctx.suppliers_of(c).iter().map(|s| {
                        let n = ctx.neighbour(s);
                        let (position, capacity) = (s.buffer_position, n.buffer_capacity);
                        (n.peer, n.rate, position as usize, capacity as usize)
                    });
                    let folds = (c.max_rate.to_bits(), c.rarity.to_bits());
                    (c.id, suppliers.collect(), folds)
                })
                .collect(),
        }
    }

    /// The context builder as a straight-line oracle: every id of the
    /// current and next session's ranges, probed at every neighbour.
    /// `neighbors` holds `(peer, outbound rate, buffer)`.
    fn reference_context(
        node: PeerRef<'_>,
        config: &GossipConfig,
        directory: &SessionDirectory,
        inbound_rate: f64,
        neighbors: &[(PeerId, f64, &FifoBuffer)],
    ) -> Option<Expanded> {
        let known = known_slice(node.known_sessions(), directory);
        if neighbors.is_empty() || inbound_rate <= 0.0 || known.is_empty() {
            return None;
        }
        let id_play = node.id_play();
        let current_idx = known.iter().rposition(|s| s.first_segment <= id_play);
        let current = &known[current_idx.unwrap_or(0)];
        let next = known.get(current_idx.unwrap_or(0) + 1);
        let max_advertised = neighbors.iter().filter_map(|n| n.2.max_id()).max();
        let max_advertised = max_advertised.unwrap_or(SegmentId(0));
        let end_of = |s: &Session| s.last_segment.unwrap_or(max_advertised).min(max_advertised);

        let window_start = end_of(current)
            .value()
            .saturating_sub(2 * config.buffer_capacity as u64);
        let current_start = id_play.max(current.first_segment).value().max(window_start);
        let mut needed: Vec<u64> = (current_start..=end_of(current).value()).collect();
        if let Some(next) = next {
            needed.extend(next.first_segment.value()..=end_of(next).value());
        }
        let mut candidates = Vec::new();
        for id in needed.into_iter().map(SegmentId) {
            let suppliers: Vec<Supplier> = neighbors
                .iter()
                .filter_map(|&(peer, rate, buffer)| {
                    Some((
                        peer,
                        rate,
                        buffer.position_from_tail(id)?,
                        buffer.capacity(),
                    ))
                })
                .collect();
            if !node.buffer().contains(id) && !suppliers.is_empty() {
                let folds = folds_of(&suppliers);
                candidates.push((id, suppliers, folds));
            }
        }
        if candidates.is_empty() {
            return None;
        }
        Some(Expanded {
            scalars: (
                config.tau_secs,
                config.play_rate,
                inbound_rate,
                id_play,
                config.startup_q,
                config.new_source_qs,
            ),
            sessions: (Some(session_view(current)), next.map(session_view)),
            q1: node.undelivered_in_session(current, max_advertised),
            q2: next.map_or(0, |next| node.q2_for(next, config.new_source_qs)),
            candidates,
        })
    }

    /// How often the scenarios reach past the buffers' advert lines.
    #[derive(Debug, Default)]
    struct Coverage {
        /// Supplier probes of ids more than 24 below the supplier's max.
        behind_advert: usize,
        /// Contexts whose current-session candidates span 3 or more words.
        wide_windows: usize,
        /// Contexts with candidates in a discovered next session.
        next_session: usize,
    }

    impl Coverage {
        fn record(&mut self, ctx: &Expanded, store: &PeerStore) {
            for (id, suppliers, _) in &ctx.candidates {
                for &(peer, ..) in suppliers {
                    let max = store.buffer(peer).max_id().map_or(0, SegmentId::value);
                    self.behind_advert += usize::from(max - id.value() >= 24);
                }
            }
            let (current, next): (Vec<_>, Vec<_>) = ctx
                .candidates
                .iter()
                .partition(|(id, ..)| ctx.sessions.1.is_none_or(|next| *id < next.first_segment));
            if let (Some(first), Some(last)) = (current.first(), current.last()) {
                self.wide_windows += usize::from(last.0.value() / 64 - first.0.value() / 64 >= 2);
            }
            self.next_session += usize::from(!next.is_empty());
        }
    }

    /// Builds one random context-builder scenario from `seed` and returns
    /// `(reference, production)`: [`reference_context`] and
    /// `scratch.build_context`, each `None` for "nothing to request".
    fn build_both(
        seed: u64,
        scratch: &mut WorkerScratch,
        coverage: &mut Coverage,
    ) -> (Option<Expanded>, Option<Expanded>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut config = GossipConfig::paper_default();
        config.buffer_capacity = rng.gen_range(8..=120);
        config.new_source_qs = rng.gen_range(1..=config.buffer_capacity);

        // One to three serial sessions; the last one is live.
        let mut directory = SessionDirectory::new();
        directory.start_session(0, 0.0, None);
        let mut first = 0;
        for _ in 1..rng.gen_range(1..=3) {
            let end = first + rng.gen_range(20..200u64);
            directory.start_session(0, 1.0, Some(SegmentId(end)));
            first = end + 1;
        }
        let head = first + rng.gen_range(0..200u64);

        let mut store = PeerStore::new(4);
        store.push_peer(config.buffer_capacity);
        let mut node = store.peer_mut(0);
        node.rejoin_at(SegmentId(rng.gen_range(0..=head)));
        if rng.gen_range(0..4) != 0 {
            *node.buffer_mut() = random_buffer(&mut rng, config.buffer_capacity, head);
        }
        // With and without the next session discovered.
        node.discover_sessions(&directory, SegmentId(rng.gen_range(0..=head + 8)));

        // Neighbours: departed (default), fresh empty, lagging or filled,
        // with their own capacities, listed in a random order.
        // Rarely more than 64, so the fill's slot groups are exercised.
        let count = if rng.gen_range(0..16) == 0 {
            rng.gen_range(60..=80u32)
        } else {
            rng.gen_range(0..=12u32)
        };
        for n in 1..=count {
            store.push_peer(config.buffer_capacity);
            *store.buffer_mut(n) = match rng.gen_range(0..7) {
                0 => FifoBuffer::default(),
                1 => FifoBuffer::new(config.buffer_capacity),
                2 => {
                    // Lagging: a contiguous run ending 25–150 ids below the
                    // head, so probes of the run's older ids miss its
                    // advert and read the heap window.
                    let capacity = rng.gen_range(32..=2 * config.buffer_capacity.max(32));
                    let mut lagging = FifoBuffer::new(capacity);
                    let hi = head.saturating_sub(rng.gen_range(25..=150u64));
                    for id in hi.saturating_sub(capacity as u64 - 1)..=hi {
                        lagging.insert(SegmentId(id));
                    }
                    lagging
                }
                _ => {
                    let capacity = rng.gen_range(4..=2 * config.buffer_capacity);
                    random_buffer(&mut rng, capacity, head)
                }
            };
        }
        let mut neighbors: Vec<PeerId> = (1..=count).collect();
        neighbors.shuffle(&mut rng);
        let outbound: Vec<Outbound> = (0..=count)
            .map(|_| Outbound {
                rate: rng.gen_range(0.0..20.0),
                budget: 0,
            })
            .collect();
        let inbound = if rng.gen_range(0..8) == 0 {
            0.0
        } else {
            rng.gen_range(0.5..30.0)
        };

        let infos: Vec<(PeerId, f64, &FifoBuffer)> = neighbors
            .iter()
            .map(|&n| (n, outbound[n as usize].rate, store.buffer(n)))
            .collect();
        let reference = reference_context(store.peer(0), &config, &directory, inbound, &infos);

        let max_advertised = neighbors
            .iter()
            .filter_map(|&n| store.buffer(n).max_id())
            .max()
            .unwrap_or(SegmentId(0));
        let production = scratch
            .build_context(
                store.peer(0),
                &config,
                &directory,
                inbound,
                &neighbors,
                &store,
                &outbound,
                store.peer(0).known_sessions(),
                max_advertised,
            )
            .then(|| expand(&scratch.ctx));
        if let Some(ctx) = &production {
            coverage.record(ctx, &store);
        }
        (reference, production)
    }

    /// Checks the scenarios of `seed` and of a derived seed on one scratch,
    /// so the second runs on reused context tables.
    fn check_seed(seed: u64) -> Result<(), proptest::TestCaseError> {
        let mut scratch = WorkerScratch::default();
        for seed in [seed, seed ^ 0x9e37_79b9_7f4a_7c15] {
            let (reference, production) = build_both(seed, &mut scratch, &mut Coverage::default());
            proptest::prop_assert_eq!(reference, production);
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        /// The allocation-free context builder equals the straight-line
        /// [`reference_context`]: same candidates, same suppliers (peer,
        /// rate, position, capacity) in the same order, bit-identical eq. 6
        /// and eq. 8 folds, same sessions and `q1`/`q2` — or both find
        /// nothing to request.  Its neighbour table has one row per
        /// supplying peer and no other.
        #[test]
        fn prop_build_context_matches_reference(seed in 0u64..u64::MAX) {
            check_seed(seed)?;
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(20_000))]
        /// Soak of [`prop_build_context_matches_reference`].
        #[test]
        #[ignore = "soak: 20k context-builder cases (run with -- --ignored)"]
        fn prop_build_context_soak(seed in 0u64..u64::MAX) {
            check_seed(seed)?;
        }
    }

    /// The random scenarios reach the builder's fallbacks past the advert
    /// lines: supplier probes more than 24 ids below the supplier's max,
    /// candidate windows of 3 or more words, and a discovered next session.
    #[test]
    fn build_context_scenarios_reach_past_the_advert() {
        let mut scratch = WorkerScratch::default();
        let mut coverage = Coverage::default();
        for seed in 0..256 {
            build_both(seed, &mut scratch, &mut coverage);
        }
        assert!(coverage.behind_advert > 100, "{coverage:?}");
        assert!(coverage.wide_windows > 10, "{coverage:?}");
        assert!(coverage.next_session > 10, "{coverage:?}");
    }

    #[test]
    fn ensure_capacity_grows_monotonically() {
        let mut scratch = PeriodScratch::default();
        scratch.ensure_capacity(100, 2);
        assert_eq!(scratch.outbound.len(), 100);
        assert_eq!(scratch.workers.len(), 2);
        scratch.ensure_capacity(50, 1);
        assert_eq!(scratch.outbound.len(), 100, "tables never shrink");
        assert_eq!(scratch.workers.len(), 2);
        scratch.ensure_capacity(150, 4);
        assert_eq!(scratch.outbound.len(), 150);
        assert_eq!(scratch.workers.len(), 4);
    }
}
