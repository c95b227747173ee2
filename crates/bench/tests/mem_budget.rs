//! Memory-budget guard: steady-state bytes/peer must stay within the
//! documented budget.
//!
//! `docs/performance.md` §"Memory model" budgets the per-peer protocol
//! state (arrival ring + availability window + sequence array + inline
//! node) of a steady-state 1 000-node system.  This test streams that
//! system and asserts the meter stays under the budget — so a regression
//! that fattens per-peer state (a wider ring entry, a window that stops
//! compacting, an over-allocating growth path) fails the build instead of
//! silently eroding the million-user headroom.  The budget sits below the
//! footprint of 4-byte ring slots, so going back to them fails it.

use fss_core::FastSwitchScheduler;
use fss_gossip::{GossipConfig, StreamingSystem};
use fss_overlay::OverlayBuilder;
use fss_trace::{GeneratorConfig, TraceGenerator};

/// The documented steady-state budget: average protocol-state bytes per
/// active peer of a 1k-node system (see docs/performance.md).  Measured at
/// ~3.4 KB with 2-byte ring slots (~4.6 KB with 4-byte slots); the ceiling
/// leaves a small margin for workload variance, not for layout
/// regressions.
const BYTES_PER_PEER_BUDGET: f64 = 4.0 * 1024.0;

#[test]
fn steady_state_bytes_per_peer_within_budget() {
    let trace = TraceGenerator::new(GeneratorConfig::sized(1_000, 33)).generate("mem-budget");
    let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
    let source = overlay.active_peers().next().unwrap();
    let mut sys = StreamingSystem::new(
        overlay,
        GossipConfig::paper_default(),
        Box::new(FastSwitchScheduler::new()),
    );
    sys.start_initial_source(source);
    // Long enough for every buffer to fill (evictions running) and every
    // capacity to reach its steady-state high-water mark.
    sys.run_periods(100);

    let mem = sys.report().mem;
    assert_eq!(mem.active_peers, 1_000);
    let per_peer = mem.bytes_per_peer();
    println!(
        "steady-state 1k-node footprint: {per_peer:.0} B/peer \
         (ring {} B, window {} B, seqs {} B per peer on average)",
        mem.ring_bytes / 1_000,
        mem.window_bytes / 1_000,
        mem.seq_bytes / 1_000,
    );
    assert!(
        per_peer <= BYTES_PER_PEER_BUDGET,
        "steady-state footprint {per_peer:.0} B/peer exceeds the documented \
         budget of {BYTES_PER_PEER_BUDGET:.0} B/peer ({mem:?})"
    );
    // Sanity: the meter is live (components populated, system streaming).
    assert!(mem.ring_bytes > 0 && mem.window_bytes > 0 && mem.seq_bytes > 0);
    assert!(sys.report().traffic_total.data_bits > 0);
}

/// The large-scale guard: the same ≤ 4 KiB/peer budget must hold at 100 000
/// peers on the sharded struct-of-arrays store — per-peer state must not
/// grow with the population, and sharding the columns must not add
/// overhead beyond the shards' own reserve slack.  Run in release mode by
/// the CI bench-smoke lane (`cargo test --release -- --ignored`); ignored
/// in the default suite because a debug-mode 100k-peer warm-up takes
/// minutes.
#[test]
#[ignore = "large-scale run: 100k peers to steady state (run with --release)"]
fn sharded_100k_bytes_per_peer_within_budget() {
    let trace =
        TraceGenerator::new(GeneratorConfig::sized(100_000, 35)).generate("mem-budget-100k");
    let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
    let source = overlay.active_peers().next().unwrap();
    let mut sys = StreamingSystem::new(
        overlay,
        GossipConfig::paper_default(),
        Box::new(FastSwitchScheduler::new()),
    );
    sys.set_shards(16);
    assert!(sys.shard_count() > 1, "the store must actually be sharded");
    sys.start_initial_source(source);
    sys.run_periods(80);

    let mem = sys.report().mem;
    assert_eq!(mem.active_peers, 100_000);
    let per_peer = mem.bytes_per_peer();
    println!(
        "steady-state 100k-node sharded footprint: {per_peer:.0} B/peer \
         ({:.1} MB of peer state)",
        mem.peer_bytes as f64 / 1e6,
    );
    assert!(
        per_peer <= BYTES_PER_PEER_BUDGET,
        "100k-peer sharded footprint {per_peer:.0} B/peer exceeds the \
         documented budget of {BYTES_PER_PEER_BUDGET:.0} B/peer ({mem:?})"
    );
    assert!(sys.report().traffic_total.data_bits > 0);
}
