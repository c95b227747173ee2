//! Best-effort software prefetch for the period hot path.
//!
//! The million-peer sweep is DRAM-bound: the working set (≈ 4.6 GB at
//! `B = 600`) is out of every cache level, so every first touch of a peer's
//! header or buffer struct pays full memory latency.  The chunk walks are
//! index-predictable, though — the fused period pass knows which peer it
//! will touch a few iterations ahead — so issuing a prefetch at a small
//! fixed distance overlaps those fills with useful work.
//!
//! A random gossip overlay gives the neighbour reads no locality at all,
//! and each one is a chain of dependent loads: peer id → buffer struct
//! (128 B, two or three lines) → window words and sequence array (separate
//! heap blocks).  The scheduling pass therefore prefetches in stages, each
//! stage reading only lines an earlier stage already fetched:
//!
//! | distance | prefetched |
//! |---|---|
//! | `2·WALK_AHEAD` | the peer's header, its buffer struct and its adjacency list |
//! | `WALK_AHEAD` | both lines of every neighbour's buffer struct |
//! | `1` | the window head ([`FifoBuffer::prefetch_head`]) of the own buffer and of every neighbour |
//!
//! The delivery walk does the same in two stages: the requester's buffer
//! struct at `4·DELIVERY_AHEAD` grants ahead, then the lines its insert
//! will touch ([`FifoBuffer::prefetch_insert`]) at `DELIVERY_AHEAD`.
//!
//! Prefetching is purely advisory: it moves cache lines, never data, so it
//! cannot change any simulated result (the determinism suites run across
//! executors, pool sizes and shard counts regardless).  On
//! non-x86 targets the hint compiles to nothing.
//!
//! [`FifoBuffer::prefetch_head`]: crate::buffer::FifoBuffer::prefetch_head
//! [`FifoBuffer::prefetch_insert`]: crate::buffer::FifoBuffer::prefetch_insert

/// Base prefetch distance, in peers, of the dense chunk walks (scheduling
/// pass, playback advance, meter sweep).  The scheduling pass fetches a
/// peer's own columns `2·WALK_AHEAD` peers ahead and its neighbours' buffer
/// structs `WALK_AHEAD` ahead, so each stage's lines have `WALK_AHEAD`
/// peers of work to arrive in.  A distance of 6 measured within noise of
/// 4 on `steady_100k`.
pub(crate) const WALK_AHEAD: usize = 4;

/// Prefetch distance, in grants, of the delivery walk: a chunk's grants
/// are applied requester-ascending, a few per requester, and each insert
/// touches the requester's buffer struct plus its window, sequence and
/// ring heap blocks.  The struct is fetched `4·DELIVERY_AHEAD` grants
/// ahead and the insert's heap lines `DELIVERY_AHEAD` ahead.
pub(crate) const DELIVERY_AHEAD: usize = 8;

/// Cache-line size the multi-line helpers step by.
const LINE: usize = 64;

/// Issues a read prefetch (to all cache levels) for the line holding `t`.
#[inline(always)]
pub(crate) fn prefetch_read<T>(t: &T) {
    prefetch_addr((t as *const T).cast::<u8>());
}

/// Issues one read prefetch per 64-byte step of `size_of::<T>()`,
/// starting at `t` (two for a buffer struct).  When `t` is not
/// line-aligned, its last few bytes may sit in one more line, left to the
/// hardware's adjacent-line prefetch: covering it explicitly measured
/// slightly slower on `steady_100k`.  The addresses are computed with
/// `wrapping` pointer arithmetic and never dereferenced.
#[inline(always)]
pub(crate) fn prefetch_lines<T>(t: &T) {
    let start = (t as *const T).cast::<u8>();
    let mut offset = 0;
    while offset < core::mem::size_of::<T>() {
        prefetch_addr(start.wrapping_add(offset));
        offset += LINE;
    }
}

#[inline(always)]
fn prefetch_addr(addr: *const u8) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint; it never faults, even on dangling
    // or unmapped addresses, and it never dereferences `addr`.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(addr.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = addr;
}
