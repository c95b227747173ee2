//! Struct-of-arrays paged peer storage: the one per-peer record.
//!
//! An array of per-peer structs has two costs at million-peer scale: every
//! protocol pass (scheduling, delivery, playback) strides over 192-byte
//! records to touch one or two fields, and the worker pool has to carve
//! chunks out of a single array whose ownership the borrow checker cannot
//! split by field.
//!
//! [`PeerStore`] keeps peers in **pages** of [`PAGE_IDS`] consecutive
//! [`PeerId`]s instead (ids are assigned sequentially and never reused, so
//! `id → (page, slot)` is a shift and a mask).  Each page owns its peers'
//! state as parallel *columns*: the bulk [`FifoBuffer`]s, the hot
//! [`PeerHeader`]s (playback, credit, discovery), the [`PeerQoe`]
//! observation slots and the [`SwitchRecord`]s.  A pass that only needs
//! buffers walks a dense `&[FifoBuffer]`.
//!
//! Pages are the memory unit; **shards** are the chunk unit.  A shard is a
//! power-of-two id range ([`shard_size`](PeerStore::shard_size)) that the
//! scheduling pass hands to the worker pool (see
//! `StreamingSystem::plan_chunks`); [`set_shards`](PeerStore::set_shards)
//! changes only that geometry and never moves a column.
//!
//! Peers enter through [`PeerStore::push_peer`], which appends an empty
//! buffer, a fresh header, QoE slot and switch record, and counts the peer
//! towards its page's live count when it is active.  A departure
//! ([`PeerStore::depart`]) releases the peer's buffer storage and drops the
//! count; once a page is full and its count reaches zero, the whole page
//! goes back to the allocator.  A departed id in a page that still holds a
//! live peer costs its four column entries (280 B); a departed id in a
//! released page costs nothing here.  Reading a released id's state panics
//! (only [`switch_record`](PeerStore::switch_record) answers `None`): every
//! pass reads active peers only.  The memory meter reports the logical
//! record's size, [`PEER_INLINE_BYTES`], as the per-peer inline stride.
//!
//! Borrowed access comes as views: [`PeerRef`] (shared, `Copy`) and
//! [`PeerMut`] (exclusive), both forwarding to the protocol rules in
//! [`crate::peer`].

use crate::buffer::FifoBuffer;
use crate::config::GossipConfig;
use crate::peer;
use crate::playback::PlaybackState;
use crate::qoe::PeerQoe;
use crate::segment::{Session, SessionDirectory};
use crate::stats::SwitchRecord;
use fss_core::SegmentId;
use fss_overlay::PeerId;
use std::marker::PhantomData;

/// Default shard capacity: 64 Ki peers per shard keeps a million-peer store
/// at 16 shards while leaving small systems in a single shard.
pub const DEFAULT_SHARD_SIZE: usize = 1 << 16;

/// Ids per page, the store's memory unit: a page's columns are allocated
/// together and released together, once every id in the full page has
/// departed.
pub const PAGE_IDS: usize = 1 << PAGE_SHIFT;

/// `log2(PAGE_IDS)`: `id >> PAGE_SHIFT` is a peer's page index.
pub(crate) const PAGE_SHIFT: u32 = 10;

/// `id → (page, slot)`.
#[inline]
pub(crate) fn page_slot(id: PeerId) -> (usize, usize) {
    let id = id as usize;
    (id >> PAGE_SHIFT, id & (PAGE_IDS - 1))
}

/// The **hot** per-peer column: everything the period sweep reads or writes
/// per peer *except* the bulk buffer storage — playback cursor, fractional
/// play credit and the discovery counter, packed into a single record so
/// one cache-line fill serves the whole playback/QoE/discovery pass.
///
/// The cold counterpart is the [`FifoBuffer`] column: its ring/window/seqs
/// heap blocks (≈ 3.2 KB/peer at the paper's `B = 600`) are touched only on
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

/// One page: the columns of up to [`PAGE_IDS`] consecutive ids, slot-
/// indexed, and how many of its ids are active.  A released page is the
/// empty default (no heap).
#[derive(Debug, Default)]
struct Page {
    buffers: Vec<FifoBuffer>,
    headers: Vec<PeerHeader>,
    qoe: Vec<PeerQoe>,
    records: Vec<SwitchRecord>,
    live: usize,
}

impl Page {
    /// An empty page with room for all [`PAGE_IDS`] ids: its columns are
    /// allocated once and never move while the page fills.
    fn reserved() -> Page {
        Page {
            buffers: Vec::with_capacity(PAGE_IDS),
            headers: Vec::with_capacity(PAGE_IDS),
            qoe: Vec::with_capacity(PAGE_IDS),
            records: Vec::with_capacity(PAGE_IDS),
            live: 0,
        }
    }
}

/// Paged struct-of-arrays storage for every peer the system has ever
/// admitted (ids are never reused; a departed peer's buffer storage is
/// released at once, its page once the page is full and holds no active
/// peer).
#[derive(Debug)]
pub struct PeerStore {
    /// Power-of-two shard capacity: the chunk unit of the period.
    shard_size: usize,
    /// `log2(shard_size)` — `id >> shift` is the shard index.
    shift: u32,
    /// Ids assigned so far, released pages included.
    len: usize,
    pages: Vec<Page>,
    /// Column base pointers captured by [`lend_columns`](Self::lend_columns)
    /// (reused across periods; meaningless outside a live lender).
    lent: Vec<PageBase>,
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
            pages: Vec::new(),
            lent: Vec::new(),
        }
    }

    /// Creates an empty store sized for `capacity` peers at the default
    /// shard size.
    pub fn with_capacity(capacity: usize) -> PeerStore {
        let mut store = PeerStore::new(DEFAULT_SHARD_SIZE);
        store.pages.reserve_exact(capacity.div_ceil(PAGE_IDS));
        store
    }

    /// Ids assigned so far (departed peers included — ids are permanent).
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

    /// Number of shards the assigned ids span.
    pub fn shard_count(&self) -> usize {
        self.len.div_ceil(self.shard_size)
    }

    /// Number of pages the assigned ids span, released ones included.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Whether page `page` still holds its columns: false once it was
    /// released (and for a page past the store).
    pub fn is_page_resident(&self, page: usize) -> bool {
        self.pages.get(page).is_some_and(|p| !p.buffers.is_empty())
    }

    /// Pages that still hold their columns.
    pub fn resident_pages(&self) -> usize {
        self.pages.iter().filter(|p| !p.buffers.is_empty()).count()
    }

    /// True when `id` was assigned and its page has been released.
    pub fn is_released(&self, id: PeerId) -> bool {
        (id as usize) < self.len && !self.is_page_resident(page_slot(id).0)
    }

    /// The buffer column of page `page` (empty for a released page).
    pub(crate) fn page_buffers(&self, page: usize) -> &[FifoBuffer] {
        &self.pages[page].buffers
    }

    /// Lends the columns out by disjoint peer runs, so the chunks of a
    /// parallel pass can each mutate their own peers — even when several
    /// chunks share one page (see [`ColumnLender`]).  The store stays
    /// exclusively borrowed while the lender lives.
    pub(crate) fn lend_columns(&mut self) -> ColumnLender<'_> {
        self.lent.clear();
        for page in &mut self.pages {
            self.lent.push(PageBase {
                buffers: page.buffers.as_mut_ptr(),
                headers: page.headers.as_mut_ptr(),
                qoe: page.qoe.as_mut_ptr(),
                records: page.records.as_mut_ptr(),
                len: page.buffers.len(),
            });
        }
        ColumnLender {
            bases: &self.lent,
            _store: PhantomData,
        }
    }

    /// Sets the chunk geometry to (at least) `shards` shards: the smallest
    /// power-of-two shard size that covers the current population in that
    /// many shards.  Nothing moves — pages are the memory unit — and
    /// results are byte-identical across shard counts (sharding only
    /// changes the chunk boundaries of the period, whose outputs
    /// concatenate in peer order either way).
    pub fn set_shards(&mut self, shards: usize) {
        let shards = shards.max(1);
        self.shard_size = self.len.div_ceil(shards).max(1).next_power_of_two();
        self.shift = self.shard_size.trailing_zeros();
    }

    /// Appends a fresh peer: an empty buffer of `buffer_capacity` segments,
    /// a header joining at segment 0 with nothing discovered and no
    /// playback credit, a QoE slot born at `birth_period` and an empty
    /// switch record.  `live` says whether the peer is active, seeding its
    /// page's live count.  Returns its id, the store's previous length
    /// (ids are dense).
    pub fn push_peer(&mut self, buffer_capacity: usize, live: bool, birth_period: u64) -> PeerId {
        let id = crate::cast::narrow(self.len, "peer ids fit u32");
        let (index, _) = page_slot(id);
        if index == self.pages.len() {
            self.pages.push(Page::reserved());
        }
        let page = &mut self.pages[index];
        page.buffers.push(FifoBuffer::new(buffer_capacity));
        page.headers.push(PeerHeader {
            playback: PlaybackState::new(SegmentId(0)),
            play_credit: 0.0,
            known_sessions: 0,
        });
        page.qoe.push(PeerQoe::joining_at(birth_period));
        page.records.push(SwitchRecord::default());
        page.live += usize::from(live);
        self.len += 1;
        self.release_if_idle(index);
        id
    }

    /// Marks an active peer departed: its switch record says so, its
    /// buffer storage goes back to the allocator and its page's live count
    /// drops.  The page itself goes back once it is full and its last
    /// active peer has left.
    pub fn depart(&mut self, id: PeerId) {
        self.switch_record_mut(id).departed = true;
        *self.buffer_mut(id) = FifoBuffer::default();
        let index = page_slot(id).0;
        let page = &mut self.pages[index];
        debug_assert!(
            page.live > 0,
            "peer {id} departs from a page with no live peer"
        );
        page.live -= 1;
        self.release_if_idle(index);
    }

    /// Releases page `index` if it is full and none of its ids is active.
    fn release_if_idle(&mut self, index: usize) {
        if index < self.len >> PAGE_SHIFT && self.pages[index].live == 0 {
            self.pages[index] = Page::default();
        }
    }

    /// The panic of a read past the store or of a released id.
    #[cold]
    #[inline(never)]
    fn missing(&self, id: PeerId) -> ! {
        if (id as usize) < self.len {
            panic!("peer {id} departed: its page was released");
        }
        panic!("peer {id} is not in the store ({} ids)", self.len);
    }

    /// The resident page holding `id`, and its slot there.
    #[inline]
    fn page(&self, id: PeerId) -> (&Page, usize) {
        let (page, slot) = page_slot(id);
        match self.pages.get(page) {
            Some(page) if slot < page.buffers.len() => (page, slot),
            _ => self.missing(id),
        }
    }

    /// [`page`](Self::page), exclusively.
    #[inline]
    fn page_mut(&mut self, id: PeerId) -> (&mut Page, usize) {
        let (page, slot) = page_slot(id);
        if self.pages.get(page).is_none_or(|p| slot >= p.buffers.len()) {
            self.missing(id);
        }
        (&mut self.pages[page], slot)
    }

    /// A peer's buffer column entry.
    ///
    /// # Panics
    /// Panics if the id's page was released (or the id was never assigned).
    #[inline]
    pub fn buffer(&self, id: PeerId) -> &FifoBuffer {
        let (page, slot) = self.page(id);
        &page.buffers[slot]
    }

    /// Mutable access to a peer's buffer (deliveries, source emission).
    ///
    /// # Panics
    /// Panics if the id's page was released (or the id was never assigned).
    #[inline]
    pub fn buffer_mut(&mut self, id: PeerId) -> &mut FifoBuffer {
        let (page, slot) = self.page_mut(id);
        &mut page.buffers[slot]
    }

    /// A peer's hot header column entry.
    ///
    /// # Panics
    /// Panics if the id's page was released (or the id was never assigned).
    #[inline]
    pub fn header(&self, id: PeerId) -> &PeerHeader {
        let (page, slot) = self.page(id);
        &page.headers[slot]
    }

    /// A peer's QoE observation slot.
    ///
    /// # Panics
    /// Panics if the id's page was released (or the id was never assigned).
    pub fn qoe(&self, id: PeerId) -> &PeerQoe {
        let (page, slot) = self.page(id);
        &page.qoe[slot]
    }

    /// A peer's switch record, or `None` once its page was released (its
    /// record then was a departed one, which no switch metric counts).
    ///
    /// # Panics
    /// Panics if the id was never assigned.
    pub fn switch_record(&self, id: PeerId) -> Option<&SwitchRecord> {
        if self.is_released(id) {
            return None;
        }
        let (page, slot) = self.page(id);
        Some(&page.records[slot])
    }

    /// Exclusive access to a peer's switch record.
    ///
    /// # Panics
    /// Panics if the id's page was released (or the id was never assigned).
    pub(crate) fn switch_record_mut(&mut self, id: PeerId) -> &mut SwitchRecord {
        let (page, slot) = self.page_mut(id);
        &mut page.records[slot]
    }

    /// The switch records of the resident pages, in id order: every record
    /// a switch metric can count.
    pub fn switch_records(&self) -> impl Iterator<Item = &SwitchRecord> + '_ {
        self.pages.iter().flat_map(|page| &page.records)
    }

    /// Resets the switch record of every id in a resident page (a released
    /// page's ids departed, so no switch counts them).
    pub(crate) fn reset_switch_records(&mut self) {
        for page in &mut self.pages {
            page.records.fill(SwitchRecord::default());
        }
    }

    /// A shared view of one peer.
    ///
    /// # Panics
    /// Panics if the id's page was released (or the id was never assigned).
    #[inline]
    pub fn peer(&self, id: PeerId) -> PeerRef<'_> {
        let (page, slot) = self.page(id);
        let header = &page.headers[slot];
        PeerRef {
            id,
            buffer: &page.buffers[slot],
            playback: &header.playback,
            known_sessions: header.known_sessions,
        }
    }

    /// An exclusive view of one peer.
    ///
    /// # Panics
    /// Panics if the id's page was released (or the id was never assigned).
    #[inline]
    pub fn peer_mut(&mut self, id: PeerId) -> PeerMut<'_> {
        let (page, slot) = self.page_mut(id);
        PeerMut {
            id,
            buffer: &mut page.buffers[slot],
            header: &mut page.headers[slot],
        }
    }

    // fss-lint: hot-path
    /// A peer's buffer, or `None` for an id past the store or in a released
    /// page (the prefetch helpers' lookup).
    #[inline]
    fn buffer_get(&self, id: PeerId) -> Option<&FifoBuffer> {
        let (page, slot) = page_slot(id);
        self.pages.get(page)?.buffers.get(slot)
    }

    /// Issues a software prefetch for a peer's header (one or two lines:
    /// the 56-byte headers straddle lines) and both lines of its buffer
    /// struct.  Advisory only: out-of-range and released ids are ignored.
    #[inline]
    pub(crate) fn prefetch_peer(&self, id: PeerId) {
        let (page, slot) = page_slot(id);
        if let Some(header) = self.pages.get(page).and_then(|p| p.headers.get(slot)) {
            crate::prefetch::prefetch_lines(header);
        }
        self.prefetch_buffer(id);
    }

    /// Issues a software prefetch for both lines of a peer's buffer struct:
    /// the core line and the advert line, which together answer the
    /// neighbour gather's `max_id` and head reads.  Advisory only:
    /// out-of-range and released ids are ignored.
    #[inline]
    pub(crate) fn prefetch_buffer(&self, id: PeerId) {
        if let Some(buffer) = self.buffer_get(id) {
            crate::prefetch::prefetch_lines(buffer);
        }
    }
    // fss-lint: end
}

/// One page's column base pointers, captured by
/// [`PeerStore::lend_columns`].
#[derive(Debug, Clone, Copy)]
struct PageBase {
    buffers: *mut FifoBuffer,
    headers: *mut PeerHeader,
    qoe: *mut PeerQoe,
    records: *mut SwitchRecord,
    len: usize,
}

// SAFETY: the pointers are only dereferenced through a live
// `ColumnLender`, which holds the store's exclusive borrow and hands out
// disjoint chunks under its documented contract — exactly as safe as
// sending each sub-slice to one thread.
unsafe impl Send for PageBase {}
// SAFETY: see `Send` above; a shared `PageBase` is only ever read.
unsafe impl Sync for PageBase {}

/// The peer columns lent out by disjoint id runs: the store-shaped twin of
/// `fss_sim::exec::DisjointRanges`.  The fused period walk gives every
/// chunk the column entries of its own peers; chunks partition the
/// ascending active list, so their id runs never overlap.
///
/// # Safety contract
///
/// [`ColumnLender::chunk`] is `unsafe`: within one `execute` run,
/// concurrently live chunks must not share a peer.
pub(crate) struct ColumnLender<'a> {
    bases: &'a [PageBase],
    _store: PhantomData<&'a mut PeerStore>,
}

// SAFETY: the lender only hands out disjoint chunks under its contract.
unsafe impl Sync for ColumnLender<'_> {}

impl ColumnLender<'_> {
    /// Exclusive access to the columns of peers `first..=last`.
    ///
    /// # Safety
    /// Concurrently live chunks must not overlap.
    pub(crate) unsafe fn chunk(&self, first: PeerId, last: PeerId) -> ChunkColumns<'_> {
        assert!(first <= last, "an empty chunk {first}..={last}");
        ChunkColumns {
            bases: self.bases,
            first,
            last,
            _columns: PhantomData,
        }
    }
}

/// The columns of one chunk's peers `first..=last`, which may span pages.
/// Every access goes through `&self`/`&mut self`, so the borrow checker
/// keeps a chunk's own borrows apart.
pub(crate) struct ChunkColumns<'a> {
    bases: &'a [PageBase],
    first: PeerId,
    last: PeerId,
    _columns: PhantomData<&'a mut PageBase>,
}

/// The column entries of a run of peers inside one page; index `i` of
/// every slice is the run's `i`-th peer.
pub(crate) struct PageRun<'a> {
    pub(crate) buffers: &'a mut [FifoBuffer],
    pub(crate) headers: &'a mut [PeerHeader],
    pub(crate) qoe: &'a mut [PeerQoe],
    pub(crate) records: &'a mut [SwitchRecord],
}

impl ChunkColumns<'_> {
    /// The page base and slot of a chunk peer, or `None` for an id outside
    /// the chunk or in a released page.
    #[inline]
    fn locate(&self, id: PeerId) -> Option<(PageBase, usize)> {
        if id.wrapping_sub(self.first) > self.last - self.first {
            return None;
        }
        let (page, slot) = page_slot(id);
        let base = *self.bases.get(page)?;
        (slot < base.len).then_some((base, slot))
    }

    /// A chunk peer's buffer, or `None` for an id outside the chunk or in
    /// a released page (the delivery prefetch's lookup).
    #[inline]
    pub(crate) fn buffer(&self, id: PeerId) -> Option<&FifoBuffer> {
        let (base, slot) = self.locate(id)?;
        // SAFETY: `slot` is inside the page's column; the chunk owns the id
        // (the lender's contract), and `&self` excludes a live `&mut`
        // handed out by this view.
        Some(unsafe { &*base.buffers.add(slot) })
    }

    /// Exclusive access to a chunk peer's buffer.
    ///
    /// # Panics
    /// Panics for an id outside the chunk or in a released page.
    #[inline]
    pub(crate) fn buffer_mut(&mut self, id: PeerId) -> &mut FifoBuffer {
        let Some((base, slot)) = self.locate(id) else {
            panic!(
                "peer {id} is not a resident peer of chunk {}..={}",
                self.first, self.last
            );
        };
        // SAFETY: as in `buffer`; `&mut self` makes this the only borrow
        // this view has out.
        unsafe { &mut *base.buffers.add(slot) }
    }

    /// Exclusive access to the columns of peers `first..=last`.
    ///
    /// # Panics
    /// Panics if the run is empty, leaves the chunk, straddles a page
    /// boundary or reaches past the page's resident entries.
    #[inline]
    pub(crate) fn run(&mut self, first: PeerId, last: PeerId) -> PageRun<'_> {
        assert!(
            self.first <= first && first <= last && last <= self.last,
            "run {first}..={last} outside chunk {}..={}",
            self.first,
            self.last
        );
        let (page, start) = page_slot(first);
        let (last_page, end) = page_slot(last);
        assert_eq!(page, last_page, "a lent run must lie in one page");
        let base = self.bases[page];
        let (end, len) = (end + 1, end + 1 - start);
        assert!(end <= base.len, "run {first}..={last} outside its page");
        // SAFETY: bounds checked above; the pointers come from the columns
        // of the exclusively borrowed store; the chunk owns its ids (the
        // lender's contract) and `&mut self` makes this its only borrow.
        unsafe {
            PageRun {
                buffers: std::slice::from_raw_parts_mut(base.buffers.add(start), len),
                headers: std::slice::from_raw_parts_mut(base.headers.add(start), len),
                qoe: std::slice::from_raw_parts_mut(base.qoe.add(start), len),
                records: std::slice::from_raw_parts_mut(base.records.add(start), len),
            }
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
            assert_eq!(store.push_peer(600, true, 0), id as PeerId);
        }
        store
    }

    #[test]
    fn push_assigns_dense_shard_slots() {
        let mut store = store_of(10, 4);
        assert_eq!(store.len(), 10);
        assert_eq!(store.shard_count(), 3);
        assert_eq!(store.page_count(), 1);
        assert_eq!(page_slot(3), (0, 3));
        assert_eq!(page_slot(PAGE_IDS as PeerId + 4), (1, 4));
        assert_eq!(store.peer(7).id(), 7);
        // A pushed peer starts empty, joining at segment 0.
        let peer = store.peer(7);
        assert_eq!(peer.buffer().capacity(), 600);
        assert!(peer.buffer().is_empty());
        assert_eq!(peer.playback().join_point(), SegmentId(0));
        assert!(!peer.playback().has_started());
        assert_eq!(peer.known_sessions(), 0);
        assert_eq!(store.header(7).play_credit, 0.0);
        assert_eq!(store.switch_record(7), Some(&SwitchRecord::default()));
        // Pages fill past the first one without moving a peer.
        for id in 10..PAGE_IDS + 3 {
            assert_eq!(store.push_peer(600, true, 0), id as PeerId);
        }
        assert_eq!(store.page_count(), 2);
        assert_eq!(store.resident_pages(), 2);
        assert_eq!(
            store.peer(PAGE_IDS as PeerId + 2).id(),
            PAGE_IDS as PeerId + 2
        );
    }

    /// The metered inline stride is the id + buffer + header record, and
    /// its value is what every pinned `MemUsage` digest was taken with.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn inline_stride_is_192_bytes() {
        assert_eq!(PEER_INLINE_BYTES, 192);
    }

    /// Every page's buffer column starts on a cache line, so each two-line
    /// buffer struct occupies exactly its two lines.
    #[test]
    fn buffer_columns_are_cache_line_aligned() {
        let store = store_of(2 * PAGE_IDS + 11, 4);
        for page in 0..store.page_count() {
            assert_eq!(store.page_buffers(page).as_ptr().addr() % 64, 0);
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

    /// A page goes back once it is full and its last live id departs; a
    /// page that still holds a live id, and the partial last page, stay.
    #[test]
    fn a_full_page_is_released_when_its_last_live_id_departs() {
        let mut store = store_of(2 * PAGE_IDS + 5, DEFAULT_SHARD_SIZE);
        for id in 0..PAGE_IDS as PeerId - 1 {
            store.depart(id);
        }
        assert!(store.is_page_resident(0), "one live id keeps the page");
        assert_eq!(store.switch_record(3).map(|r| r.departed), Some(true));
        assert_eq!(store.buffer(3).mem_breakdown().heap_total(), 0);
        store.depart(PAGE_IDS as PeerId - 1);
        assert!(!store.is_page_resident(0));
        assert!(store.is_released(0) && store.is_released(PAGE_IDS as PeerId - 1));
        assert_eq!(store.switch_record(5), None);
        assert_eq!(store.resident_pages(), 2);
        // The records left to fold are the resident pages'.
        assert_eq!(store.switch_records().count(), PAGE_IDS + 5);

        // The partial last page stays until it fills.
        let tail = 2 * PAGE_IDS as PeerId;
        for id in tail..tail + 5 {
            store.depart(id);
        }
        assert!(store.is_page_resident(2));
        for _ in 5..PAGE_IDS - 1 {
            store.push_peer(600, false, 9);
        }
        assert!(store.is_page_resident(2));
        store.push_peer(600, false, 9);
        assert!(!store.is_page_resident(2), "a full page with no live id");
        assert_eq!(store.len(), 3 * PAGE_IDS);
    }

    /// Reading a released id's state is a bug the store names.
    #[test]
    #[should_panic(expected = "peer 7 departed")]
    fn reading_a_released_page_panics() {
        let mut store = store_of(PAGE_IDS + 1, DEFAULT_SHARD_SIZE);
        for id in 0..PAGE_IDS as PeerId {
            store.depart(id);
        }
        // Prefetches are advisory: a released id is skipped.
        store.prefetch_peer(7);
        let _ = store.header(7);
    }
}
