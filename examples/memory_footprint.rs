//! The per-peer memory meter: steady-state bytes/peer across population
//! sizes, then the large-population scenario the compact layout buys
//! headroom for (10k nodes by default; pass `full` for the 50k-node run).
//!
//! ```text
//! cargo run --release --example memory_footprint [-- full]
//! ```

use fast_source_switching::prelude::*;

fn print_summary(label: &str, mem: &MemSummary) {
    println!(
        "  {label:>12}: {:>6.0} B/peer  (ring {:>5.0}  window {:>4.0}  seqs {:>5.0})",
        mem.avg_bytes_per_peer,
        mem.ring_bytes as f64 / mem.active_peers.max(1) as f64,
        mem.window_bytes as f64 / mem.active_peers.max(1) as f64,
        mem.seq_bytes as f64 / mem.active_peers.max(1) as f64,
    );
}

fn main() {
    println!("steady-state per-peer protocol footprint (B = 600, paper defaults):");
    for point in sweep_memory(&[250, 1_000, 4_000]) {
        print_summary(&format!("{} nodes", point.nodes), &point.mem);
    }

    let full = std::env::args().any(|a| a == "full");
    let nodes = if full { LARGE_POPULATION_NODES } else { 10_000 };
    println!();
    println!("large-population scenario ({nodes} viewers, single channel)...");
    #[expect(
        clippy::disallowed_methods,
        reason = "examples print wall-clock progress for humans; the simulation results they show are still pure functions of the configured seeds"
    )]
    let start = std::time::Instant::now();
    let report = run_large_population(&MemoryScenario::sized(nodes));
    let elapsed = start.elapsed();
    print_summary("footprint", &report.mem);
    println!(
        "  {:.1}% of viewers reached steady playback over {} periods \
         ({:.1} s wall clock, {:.1} MB of peer state)",
        100.0 * report.playback_started,
        report.periods,
        elapsed.as_secs_f64(),
        report.mem.peer_state_bytes as f64 / 1e6
    );
    assert!(
        report.playback_started > 0.9,
        "large population failed to reach steady playback"
    );
}
