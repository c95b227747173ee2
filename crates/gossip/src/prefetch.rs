//! Best-effort software prefetch for the period hot path.
//!
//! The million-peer sweep is DRAM-bound: the working set (≈ 3.4 GB at
//! `B = 600`) is out of every cache level, so every first touch of a peer's
//! header or buffer struct pays full memory latency.  The chunk walks are
//! index-predictable, though — the fused period pass knows which peer it
//! will touch a few iterations ahead — so issuing a prefetch at a small
//! fixed distance overlaps those fills with useful work.
//!
//! A random gossip overlay gives the neighbour reads no locality at all.
//! A neighbour's buffer map is its `FifoBuffer` struct: two aligned cache
//! lines, the core line and the advert line, which carries the window head
//! the scheduling probes land in (see [`crate::buffer`]).  The scheduling
//! pass prefetches in two stages, the second reading only lines the first
//! already fetched:
//!
//! | distance | prefetched |
//! |---|---|
//! | `2·WALK_AHEAD` | the peer's header, its buffer struct and its adjacency list |
//! | `WALK_AHEAD` | both lines of every neighbour's buffer struct, and the line of its outbound entry (rate and budget) |
//!
//! The outbound entry is what a neighbour's first supplier hit (its rate,
//! for the context's neighbour table) and the grant step (its budget)
//! read, so both reads land on the one prefetched line.
//!
//! The delivery walk does the same in two stages: the requester's buffer
//! struct at `4·DELIVERY_AHEAD` grants ahead, then the heap lines its
//! insert will touch ([`FifoBuffer::prefetch_insert`]) at `DELIVERY_AHEAD`.
//!
//! Prefetching is purely advisory: it moves cache lines, never data, so it
//! cannot change any simulated result (the determinism suites run across
//! executors, pool sizes and shard counts regardless).  On
//! non-x86 targets the hint compiles to nothing.
//!
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

/// Issues one read prefetch per cache line `t` occupies, from the line
/// of its first byte to the line of its last (two for a buffer struct,
/// one or two for a peer header).  The addresses keep `t`'s provenance
/// and are never dereferenced.
#[inline(always)]
pub(crate) fn prefetch_lines<T>(t: &T) {
    let start = (t as *const T).cast::<u8>();
    let (lead, lines) = line_span(start.addr(), core::mem::size_of::<T>());
    let first = start.wrapping_sub(lead);
    for line in 0..lines {
        prefetch_addr(first.wrapping_add(line * LINE));
    }
}

/// The cache lines the `size` bytes at `addr` occupy: how far the first
/// line starts before `addr`, and how many lines there are (one for a
/// zero-sized value).
#[inline(always)]
fn line_span(addr: usize, size: usize) -> (usize, usize) {
    let lead = addr % LINE;
    (lead, (lead + size.max(1)).div_ceil(LINE))
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The start addresses of the lines [`line_span`] names.
    fn lines(addr: usize, size: usize) -> Vec<usize> {
        let (lead, count) = line_span(addr, size);
        (0..count).map(|line| addr - lead + line * LINE).collect()
    }

    #[test]
    fn line_addresses_cover_the_first_through_the_last_byte() {
        // Aligned: a 128-byte buffer struct is exactly two lines, a 56-byte
        // header one.
        assert_eq!(lines(4096, 128), [4096, 4160]);
        assert_eq!(lines(4096, 56), [4096]);
        assert_eq!(lines(4096, 64), [4096]);
        // Unaligned starts reach into one more line.
        assert_eq!(lines(4096 + 16, 128), [4096, 4160, 4224]);
        assert_eq!(lines(4096 + 8, 56), [4096]);
        assert_eq!(lines(4096 + 16, 56), [4096, 4160]);
        assert_eq!(lines(4096 + 63, 2), [4096, 4160]);
        // A 56-byte-stride header column: 6 of every 8 headers straddle a
        // line boundary, and each is covered from its first to its last
        // byte.
        let mut straddling = 0;
        for k in 0..8usize {
            let (first, last) = (4096 + 16 + 56 * k, 4096 + 16 + 56 * k + 55);
            let got = lines(first, 56);
            assert_eq!(got.first(), Some(&(first - first % LINE)), "header {k}");
            assert_eq!(got.last(), Some(&(last - last % LINE)), "header {k}");
            straddling += usize::from(got.len() == 2);
        }
        assert_eq!(straddling, 6);
        // Zero-sized values still name their line.
        assert_eq!(lines(4096 + 5, 0), [4096]);
    }
}
