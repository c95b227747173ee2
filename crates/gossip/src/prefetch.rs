//! Best-effort software prefetch for the period hot path.
//!
//! The million-peer sweep is DRAM-bound: the working set (≈ 4.6 GB at
//! `B = 600`) is out of every cache level, so every first touch of a peer's
//! header or buffer struct pays full memory latency.  The chunk walks are
//! index-predictable, though — the fused period pass knows which peer it
//! will touch a few iterations ahead — so issuing a prefetch at a small
//! fixed distance overlaps those fills with useful work.
//!
//! Prefetching is purely advisory: it moves cache lines, never data, so it
//! cannot change any simulated result (the determinism suites run across
//! executors, pool sizes and shard counts regardless).  On
//! non-x86 targets the hint compiles to nothing.

/// How many iterations ahead the dense chunk walks (scheduling gather,
/// playback advance, meter sweep) prefetch the next peer's columns.  One
/// header line plus the buffer struct fit comfortably in the L1 fill
/// buffers at this distance; further ahead the lines risk eviction before
/// use on the 1-vCPU bench hosts.
pub(crate) const WALK_AHEAD: usize = 4;

/// Prefetch distance for the delivery-application walk: deliveries of one
/// destination shard are applied back to back and each insert touches the
/// requester's buffer struct plus its window/ring heap blocks, so the walk
/// benefits from a slightly deeper pipeline than the per-peer passes.
pub(crate) const DELIVERY_AHEAD: usize = 8;

/// Issues a read prefetch (to all cache levels) for the line holding `t`.
#[inline(always)]
pub(crate) fn prefetch_read<T>(t: &T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a hint; it never faults, even on dangling
    // addresses, and `t` is a live reference anyway.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(
            (t as *const T).cast::<i8>(),
        );
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = t;
}
