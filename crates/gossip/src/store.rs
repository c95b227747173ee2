//! Struct-of-arrays sharded peer storage: the one per-peer record.
//!
//! An array of per-peer structs has two costs at million-peer scale: every
//! protocol pass (scheduling, delivery, playback) strides over 192-byte
//! records to touch one or two fields, and the worker pool has to carve
//! chunks out of a single array whose ownership the borrow checker cannot
//! split by field.
//!
//! [`PeerStore`] keeps peers in **shards** of dense, contiguous [`PeerId`]
//! ranges instead (ids are assigned sequentially and never reused, so
//! `id → (shard, slot)` is a shift and a mask).  Each [`PeerShard`] owns its
//! peers' state as two parallel *columns*: the bulk [`FifoBuffer`]s and the
//! hot [`PeerHeader`]s (playback, credit, discovery).  A pass that only
//! needs buffers walks a dense `Vec<FifoBuffer>`, and the scheduling pass
//! hands whole shards to the worker pool as its chunk unit (see
//! `StreamingSystem::plan_chunks`).
//!
//! Peers enter through [`PeerStore::push_peer`], which appends an empty
//! buffer and a fresh header.  The logical per-peer record is the id, the
//! buffer and the header; the memory meter reports its size,
//! [`PEER_INLINE_BYTES`], as the per-peer inline stride.
//!
//! Borrowed access comes as views: [`PeerRef`] (shared, `Copy`) and
//! [`PeerMut`] (exclusive), both forwarding to the protocol rules in
//! [`crate::peer`].

use crate::buffer::FifoBuffer;
use crate::config::GossipConfig;
use crate::peer;
use crate::playback::PlaybackState;
use crate::segment::{Session, SessionDirectory};
use fss_core::SegmentId;
use fss_overlay::PeerId;
use std::marker::PhantomData;

/// Default shard capacity: 64 Ki peers per shard keeps a million-peer store
/// at 16 shards while leaving small systems in a single shard.
pub const DEFAULT_SHARD_SIZE: usize = 1 << 16;

/// The **hot** per-peer column: everything the period sweep reads or writes
/// per peer *except* the bulk buffer storage — playback cursor, fractional
/// play credit and the discovery counter, packed into a single record so
/// one cache-line fill serves the whole playback/QoE/discovery pass.
///
/// The cold counterpart is the [`FifoBuffer`] column: its ring/window/seqs
/// heap blocks (≈ 4.4 KB/peer at the paper's `B = 600`) are touched only on
/// actual buffer reads and mutations, never dragged in by header-only
/// passes.
#[derive(Debug, Clone)]
pub struct PeerHeader {
    /// Playback position, startup flag and stall/played counters.
    pub playback: PlaybackState,
    /// Fractional playback credit carried across periods.
    pub play_credit: f64,
    /// How many sessions (prefix of the directory) the peer has discovered.
    pub known_sessions: usize,
}

// One header per cache line: the fused period walk budgets exactly one
// line fill per peer for the hot column.
const _: () = assert!(std::mem::size_of::<PeerHeader>() <= 64);

/// The metered per-peer inline stride: the logical per-peer record: id +
/// buffer + header.  `StreamingSystem::memory_usage` charges it once per
/// active peer on top of the buffer's heap blocks.
pub const PEER_INLINE_BYTES: usize = std::mem::size_of::<(PeerId, FifoBuffer, PeerHeader)>();

/// One shard: the peer state of a contiguous [`PeerId`] range, stored as
/// parallel columns (struct of arrays), split hot/cold: the dense
/// [`PeerHeader`] column carries the per-period scalar state, the
/// [`FifoBuffer`] column carries the bulk segment storage.
#[derive(Debug, Default)]
pub struct PeerShard {
    buffers: Vec<FifoBuffer>,
    headers: Vec<PeerHeader>,
}

impl PeerShard {
    fn with_capacity(capacity: usize) -> PeerShard {
        let mut shard = PeerShard::default();
        shard.buffers.reserve_exact(capacity);
        shard.headers.reserve_exact(capacity);
        shard
    }

    /// Peers stored in this shard.
    pub fn len(&self) -> usize {
        self.buffers.len()
    }

    /// True when the shard holds no peers.
    pub fn is_empty(&self) -> bool {
        self.buffers.is_empty()
    }

    /// The shard's buffer column (dense, slot-indexed).
    pub fn buffers(&self) -> &[FifoBuffer] {
        &self.buffers
    }

    /// The shard's hot header column (dense, slot-indexed).
    pub fn headers(&self) -> &[PeerHeader] {
        &self.headers
    }

    fn push_parts(&mut self, buffer: FifoBuffer, header: PeerHeader) {
        self.buffers.push(buffer);
        self.headers.push(header);
    }
}

/// Sharded struct-of-arrays storage for every peer the system has ever
/// admitted (slots are never reused; departed peers keep their slot, but
/// the system releases their buffer storage, so a departed slot costs only
/// its inline stride).
#[derive(Debug)]
pub struct PeerStore {
    /// Power-of-two shard capacity.
    shard_size: usize,
    /// `log2(shard_size)` — `id >> shift` is the shard index.
    shift: u32,
    /// Total peers across all shards.
    len: usize,
    shards: Vec<PeerShard>,
    /// Column base pointers captured by [`lend_columns`](Self::lend_columns)
    /// (reused across periods; meaningless outside a live lender).
    lent: Vec<ShardBase>,
}

impl PeerStore {
    /// Creates an empty store with the given power-of-two shard size.
    pub fn new(shard_size: usize) -> PeerStore {
        assert!(
            shard_size.is_power_of_two(),
            "shard size must be a power of two, got {shard_size}"
        );
        PeerStore {
            shard_size,
            shift: shard_size.trailing_zeros(),
            len: 0,
            shards: Vec::new(),
            lent: Vec::new(),
        }
    }

    /// Creates an empty store sized for `capacity` peers at the default
    /// shard size.
    pub fn with_capacity(capacity: usize) -> PeerStore {
        let mut store = PeerStore::new(DEFAULT_SHARD_SIZE);
        store
            .shards
            .reserve_exact(capacity.div_ceil(DEFAULT_SHARD_SIZE));
        store
    }

    /// Total peers stored (including departed peers — slots are permanent).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no peer has been admitted yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The power-of-two capacity of each shard.
    pub fn shard_size(&self) -> usize {
        self.shard_size
    }

    /// `log2(shard_size)`: `id >> shard_shift()` is a peer's shard index.
    pub fn shard_shift(&self) -> u32 {
        self.shift
    }

    /// Number of shards currently backing the store.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shards themselves (scheduling hands these to the worker pool).
    pub fn shards(&self) -> &[PeerShard] {
        &self.shards
    }

    /// Lends the buffer and header columns out by disjoint peer runs, so
    /// the chunks of a parallel pass can each mutate their own peers — even
    /// when several chunks share one shard (see [`ColumnLender`]).  The
    /// store stays exclusively borrowed while the lender lives.
    pub(crate) fn lend_columns(&mut self) -> ColumnLender<'_> {
        self.lent.clear();
        for shard in &mut self.shards {
            self.lent.push(ShardBase {
                buffers: shard.buffers.as_mut_ptr(),
                headers: shard.headers.as_mut_ptr(),
                len: shard.len(),
            });
        }
        ColumnLender {
            bases: &self.lent,
            shift: self.shift,
            mask: self.shard_size - 1,
            _store: PhantomData,
        }
    }

    /// Re-partitions the store into (at least) `shards` shards by shrinking
    /// the shard size to the smallest power of two that covers the current
    /// population in that many shards.  Stored state is moved column-wise;
    /// results are byte-identical across shard counts (sharding only changes
    /// the chunk boundaries of the scheduling pass, whose outputs concatenate
    /// in peer order either way).
    pub fn set_shards(&mut self, shards: usize) {
        let shards = shards.max(1);
        let shard_size = self.len.div_ceil(shards).max(1).next_power_of_two();
        if shard_size == self.shard_size {
            return;
        }
        let old = std::mem::take(&mut self.shards);
        self.shard_size = shard_size;
        self.shift = shard_size.trailing_zeros();
        self.len = 0;
        self.shards.reserve_exact(
            old.iter()
                .map(PeerShard::len)
                .sum::<usize>()
                .div_ceil(shard_size),
        );
        for shard in old {
            let PeerShard { buffers, headers } = shard;
            for (buffer, header) in buffers.into_iter().zip(headers) {
                self.push_parts(buffer, header);
            }
        }
    }

    /// Appends a fresh peer: an empty buffer of `buffer_capacity` segments
    /// and a header joining at segment 0, with nothing discovered and no
    /// playback credit.  Returns its id, the store's previous length (ids
    /// are dense).
    pub fn push_peer(&mut self, buffer_capacity: usize) -> PeerId {
        let id = self.len as PeerId;
        self.push_parts(
            FifoBuffer::new(buffer_capacity),
            PeerHeader {
                playback: PlaybackState::new(SegmentId(0)),
                play_credit: 0.0,
                known_sessions: 0,
            },
        );
        id
    }

    fn push_parts(&mut self, buffer: FifoBuffer, header: PeerHeader) {
        if self.len == self.shards.len() * self.shard_size {
            self.shards.push(PeerShard::with_capacity(self.shard_size));
        }
        let shard = self.shards.last_mut().expect("shard just ensured");
        shard.push_parts(buffer, header);
        self.len += 1;
    }

    /// `id → (shard, slot)`.
    #[inline]
    fn loc(&self, id: PeerId) -> (usize, usize) {
        let id = id as usize;
        (id >> self.shift, id & (self.shard_size - 1))
    }

    /// A peer's buffer column entry.
    #[inline]
    pub fn buffer(&self, id: PeerId) -> &FifoBuffer {
        let (shard, slot) = self.loc(id);
        &self.shards[shard].buffers[slot]
    }

    /// Mutable access to a peer's buffer (deliveries, source emission).
    #[inline]
    pub fn buffer_mut(&mut self, id: PeerId) -> &mut FifoBuffer {
        let (shard, slot) = self.loc(id);
        &mut self.shards[shard].buffers[slot]
    }

    /// A peer's hot header column entry.
    #[inline]
    pub fn header(&self, id: PeerId) -> &PeerHeader {
        let (shard, slot) = self.loc(id);
        &self.shards[shard].headers[slot]
    }

    /// A shared view of one peer.
    #[inline]
    pub fn peer(&self, id: PeerId) -> PeerRef<'_> {
        let (shard, slot) = self.loc(id);
        let shard = &self.shards[shard];
        let header = &shard.headers[slot];
        PeerRef {
            id,
            buffer: &shard.buffers[slot],
            playback: &header.playback,
            known_sessions: header.known_sessions,
        }
    }

    /// An exclusive view of one peer.
    #[inline]
    pub fn peer_mut(&mut self, id: PeerId) -> PeerMut<'_> {
        let (shard, slot) = self.loc(id);
        let shard = &mut self.shards[shard];
        PeerMut {
            id,
            buffer: &mut shard.buffers[slot],
            header: &mut shard.headers[slot],
        }
    }

    // fss-lint: hot-path
    /// A peer's buffer, or `None` for an id past the store (the prefetch
    /// helpers' bounds-checked lookup).
    #[inline]
    fn buffer_get(&self, id: PeerId) -> Option<&FifoBuffer> {
        let (shard, slot) = self.loc(id);
        self.shards.get(shard)?.buffers.get(slot)
    }

    /// Issues a software prefetch for a peer's header (one or two lines:
    /// the 56-byte headers straddle lines) and both lines of its buffer
    /// struct.  Advisory only: out-of-range ids are ignored.
    #[inline]
    pub(crate) fn prefetch_peer(&self, id: PeerId) {
        let (shard, slot) = self.loc(id);
        if let Some(header) = self.shards.get(shard).and_then(|s| s.headers.get(slot)) {
            crate::prefetch::prefetch_lines(header);
        }
        self.prefetch_buffer(id);
    }

    /// Issues a software prefetch for both lines of a peer's buffer struct:
    /// the core line and the advert line, which together answer the
    /// neighbour gather's `max_id` and head reads.  Advisory only:
    /// out-of-range ids are ignored.
    #[inline]
    pub(crate) fn prefetch_buffer(&self, id: PeerId) {
        if let Some(buffer) = self.buffer_get(id) {
            crate::prefetch::prefetch_lines(buffer);
        }
    }
    // fss-lint: end
}

/// One shard's column base pointers, captured by
/// [`PeerStore::lend_columns`].
#[derive(Debug, Clone, Copy)]
struct ShardBase {
    buffers: *mut FifoBuffer,
    headers: *mut PeerHeader,
    len: usize,
}

// SAFETY: the pointers are only dereferenced through a live
// `ColumnLender`, which holds the store's exclusive borrow and hands out
// disjoint runs under its documented contract — exactly as safe as sending
// each sub-slice to one thread.
unsafe impl Send for ShardBase {}
// SAFETY: see `Send` above; a shared `ShardBase` is only ever read.
unsafe impl Sync for ShardBase {}

/// The peer columns lent out by disjoint id runs: the store-shaped twin of
/// `fss_sim::exec::DisjointRanges`.  The fused period walk gives every
/// chunk the buffer and header slots of its own peers; chunks partition
/// the ascending active list, so their id runs never overlap.
///
/// # Safety contract
///
/// [`ColumnLender::run`] is `unsafe`: within one `execute` run, concurrently
/// live runs must not share a peer.
pub(crate) struct ColumnLender<'a> {
    bases: &'a [ShardBase],
    shift: u32,
    mask: usize,
    _store: PhantomData<&'a mut PeerStore>,
}

// SAFETY: the lender only hands out disjoint runs under its contract.
unsafe impl Sync for ColumnLender<'_> {}

impl ColumnLender<'_> {
    /// Exclusive access to the buffer and header columns of peers
    /// `first..=last`; index `i` of both slices is peer `first + i`.
    ///
    /// # Safety
    /// Concurrently live runs must not overlap.
    ///
    /// # Panics
    /// Panics if the run is empty, straddles a shard boundary or reaches
    /// past the stored peers.
    #[allow(clippy::mut_from_ref)] // the whole point; contract documented above
    pub(crate) unsafe fn run(
        &self,
        first: PeerId,
        last: PeerId,
    ) -> (&mut [FifoBuffer], &mut [PeerHeader]) {
        let shard = (first as usize) >> self.shift;
        assert_eq!(
            shard,
            (last as usize) >> self.shift,
            "a lent run must lie in one shard"
        );
        let base = self.bases[shard];
        let start = first as usize & self.mask;
        let end = (last as usize & self.mask) + 1;
        assert!(
            start < end && end <= base.len,
            "run {first}..={last} outside its shard"
        );
        // SAFETY: bounds checked above; the pointers come from the columns
        // of the exclusively borrowed store; disjointness is the caller's
        // contract.
        unsafe {
            (
                std::slice::from_raw_parts_mut(base.buffers.add(start), end - start),
                std::slice::from_raw_parts_mut(base.headers.add(start), end - start),
            )
        }
    }
}

/// A shared, `Copy` view of one stored peer.
#[derive(Clone, Copy)]
pub struct PeerRef<'a> {
    id: PeerId,
    buffer: &'a FifoBuffer,
    playback: &'a PlaybackState,
    known_sessions: usize,
}

impl<'a> PeerRef<'a> {
    /// The peer's id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// The peer's segment buffer.
    pub fn buffer(&self) -> &'a FifoBuffer {
        self.buffer
    }

    /// The peer's playback state.
    pub fn playback(&self) -> &'a PlaybackState {
        self.playback
    }

    /// Number of sessions the peer has discovered.
    pub fn known_sessions(&self) -> usize {
        self.known_sessions
    }

    /// The id the peer will play next (`id_play`).
    pub fn id_play(&self) -> SegmentId {
        self.playback.next_play()
    }

    /// Undelivered segments of `session` that the peer still needs, i.e.
    /// ids in `[max(id_play, first), end]` missing from its buffer.  `end`
    /// falls back to `fallback_end` for a live session.
    pub fn undelivered_in_session(&self, session: &Session, fallback_end: SegmentId) -> usize {
        peer::undelivered_in_session(self.buffer, self.id_play(), session, fallback_end)
    }

    /// `Q2` for a new session: how many of its first `Qs` segments are
    /// still missing.
    pub fn q2_for(&self, session: &Session, qs: usize) -> usize {
        peer::q2_for(self.buffer, session, qs)
    }
}

/// An exclusive view of one stored peer.
pub struct PeerMut<'a> {
    id: PeerId,
    buffer: &'a mut FifoBuffer,
    header: &'a mut PeerHeader,
}

impl PeerMut<'_> {
    /// The peer's id.
    pub fn id(&self) -> PeerId {
        self.id
    }

    /// Mutable access to the peer's buffer.
    pub fn buffer_mut(&mut self) -> &mut FifoBuffer {
        self.buffer
    }

    /// Moves the join point before playback starts (joiners follow their
    /// neighbours' current playback position).
    pub fn rejoin_at(&mut self, join_point: SegmentId) {
        self.header.playback.rejoin_at(join_point);
    }

    /// Discovers sessions: the peer learns every session whose first
    /// segment is at or below `observed_max`, in serial order.  Sources call
    /// this with their own session's first segment when they start
    /// emitting.
    pub fn discover_sessions(&mut self, directory: &SessionDirectory, observed_max: SegmentId) {
        peer::discover_sessions(&mut self.header.known_sessions, directory, observed_max);
    }

    /// Advances playback by one period and returns the number of segments
    /// played (see [`crate::peer`] for the startup and new-session gates).
    pub fn advance_playback(&mut self, config: &GossipConfig, directory: &SessionDirectory) -> u64 {
        let known = peer::known_slice(self.header.known_sessions, directory);
        peer::advance_playback(
            self.buffer,
            &mut self.header.playback,
            &mut self.header.play_credit,
            known,
            config,
        )
    }

    /// Read access to the peer's playback state (the QoE recorder observes
    /// it right after [`advance_playback`](Self::advance_playback) without
    /// paying a second store lookup).
    pub fn playback(&self) -> &PlaybackState {
        &self.header.playback
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store_of(n: usize, shard_size: usize) -> PeerStore {
        let mut store = PeerStore::new(shard_size);
        for id in 0..n {
            assert_eq!(store.push_peer(600), id as PeerId);
        }
        store
    }

    #[test]
    fn push_assigns_dense_shard_slots() {
        let store = store_of(10, 4);
        assert_eq!(store.len(), 10);
        assert_eq!(store.shard_count(), 3);
        assert_eq!(store.shards()[0].len(), 4);
        assert_eq!(store.shards()[1].len(), 4);
        assert_eq!(store.shards()[2].len(), 2);
        assert_eq!(store.loc(3), (0, 3));
        assert_eq!(store.loc(4), (1, 0));
        assert_eq!(store.peer(7).id(), 7);
        // A pushed peer starts empty, joining at segment 0.
        let peer = store.peer(7);
        assert_eq!(peer.buffer().capacity(), 600);
        assert!(peer.buffer().is_empty());
        assert_eq!(peer.playback().join_point(), SegmentId(0));
        assert!(!peer.playback().has_started());
        assert_eq!(peer.known_sessions(), 0);
        assert_eq!(store.header(7).play_credit, 0.0);
    }

    /// The metered inline stride is the id + buffer + header record, and
    /// its value is what every pinned `MemUsage` digest was taken with.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn inline_stride_is_192_bytes() {
        assert_eq!(PEER_INLINE_BYTES, 192);
    }

    /// Every shard's buffer column starts on a cache line, so each
    /// two-line buffer struct occupies exactly its two lines.
    #[test]
    fn buffer_columns_are_cache_line_aligned() {
        let mut store = store_of(11, 4);
        for shards in [1, 2, 3] {
            store.set_shards(shards);
            for shard in store.shards() {
                assert_eq!(shard.buffers().as_ptr().addr() % 64, 0);
            }
        }
    }

    #[test]
    fn resharding_preserves_state_and_order() {
        let mut dir = SessionDirectory::new();
        dir.start_session(0, 0.0, None);

        let mut store = store_of(11, 4);
        for id in 0..11u32 {
            for i in 0..(id as u64 + 1) {
                store.buffer_mut(id).insert(SegmentId(i));
            }
            store.peer_mut(id).discover_sessions(&dir, SegmentId(0));
        }

        store.set_shards(2);
        assert_eq!(store.len(), 11);
        assert_eq!(store.shard_size(), 8);
        assert_eq!(store.shard_count(), 2);
        for id in 0..11u32 {
            assert_eq!(store.buffer(id).len(), id as usize + 1);
            assert_eq!(store.peer(id).known_sessions(), 1);
        }

        // Growing back to one shard is equally lossless.
        store.set_shards(1);
        assert_eq!(store.shard_count(), 1);
        for id in 0..11u32 {
            assert_eq!(store.buffer(id).len(), id as usize + 1);
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shard_size_is_rejected() {
        PeerStore::new(12);
    }
}
