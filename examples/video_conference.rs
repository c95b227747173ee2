//! The paper's motivating scenario: a video conference in which the speaker
//! (the streaming source) changes several times in sequence.
//!
//! The example drives the [`StreamingSystem`] directly: it warms the overlay
//! up with the first speaker, then hands the stream over to a new speaker
//! three times, measuring the switch delay of every handover with the fast
//! switch algorithm.
//!
//! ```text
//! cargo run --release --example video_conference
//! ```

use fast_source_switching::prelude::*;
use fast_source_switching::trace::TraceGenerator;

fn main() {
    // Build a conference-sized overlay (200 participants) from a synthetic
    // crawl trace, with the paper's M = 5 neighbour rule.
    let trace = TraceGenerator::new(GeneratorConfig::sized(200, 7)).generate("conference");
    let overlay = OverlayBuilder::paper_default()
        .build(&trace)
        .expect("overlay construction");
    let participants: Vec<PeerId> = overlay.active_peers().collect();

    let mut system = StreamingSystem::new(
        overlay,
        GossipConfig::paper_default(),
        Box::new(FastSwitchScheduler::new()),
    );

    // The first speaker opens the conference and streams for 30 s.
    let mut speaker = participants[0];
    system.start_initial_source(speaker);
    system.run_periods(30);
    println!("speaker 1 (peer {speaker}) has been streaming for 30 s");

    // Three speaker changes, each measured independently.
    for round in 1..=3u32 {
        let next = participants[(round as usize * 61) % participants.len()];
        let next = if next == speaker {
            participants[1]
        } else {
            next
        };
        system.switch_source(next);
        let periods = system.run_until_switched(300);
        let switch = system.report().switch;

        println!(
            "handover {round}: peer {speaker} -> peer {next}: avg switch time {:.2}s, \
             last listener ready after {:.1}s ({} listeners, {periods} periods simulated)",
            switch.prepare_new_secs.mean(),
            switch.prepare_new_secs.max_or_zero(),
            switch.countable_nodes,
        );
        speaker = next;

        // Let the new speaker stream for a while before the next handover.
        system.run_periods(20);
    }

    let report = system.report();
    println!(
        "\ntotal traffic: {:.1} Mbit of data, {:.2} Mbit of buffer maps ({:.2}% overhead)",
        report.traffic_total.data_bits as f64 / 1e6,
        report.traffic_total.control_bits as f64 / 1e6,
        report.traffic_total.overhead() * 100.0
    );
}
