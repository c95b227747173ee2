//! End-to-end pipeline tests across crates: trace → overlay → streaming
//! system → source switch, driven through the public facade.

use fast_source_switching::gossip::{GossipConfig, StreamingSystem};
use fast_source_switching::overlay::{OverlayBuilder, PeerId};
use fast_source_switching::prelude::*;
use fast_source_switching::trace::TraceGenerator;

#[test]
fn generated_trace_builds_a_streaming_overlay() {
    let trace = TraceGenerator::new(GeneratorConfig::sized(150, 42)).generate("pipeline");
    assert_eq!(trace.node_count(), 150);

    let overlay = OverlayBuilder::paper_default()
        .build(&trace)
        .expect("overlay builds");
    assert_eq!(overlay.active_count(), 150);
    assert!(
        overlay.graph().min_degree().unwrap() >= 5,
        "paper's M = 5 rule"
    );
}

#[test]
fn full_switch_through_the_facade_completes_with_both_algorithms() {
    for algorithm in [Algorithm::Fast, Algorithm::Normal] {
        let trace = TraceGenerator::new(GeneratorConfig::sized(90, 3)).generate("facade");
        let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
        let peers: Vec<PeerId> = overlay.active_peers().collect();

        let mut system = StreamingSystem::new(
            overlay,
            GossipConfig::paper_default(),
            algorithm.scheduler(),
        );
        system.start_initial_source(peers[0]);
        system.run_periods(25);
        system.switch_source(peers[40]);
        let executed = system.run_until_switched(200);
        assert!(executed < 200, "{:?} switch never completed", algorithm);

        let report = system.report();
        assert!(report.switch_completed_secs.is_some());
        assert!(report.switch.completion_rate() > 0.999);
        assert!(report.switch.prepare_new_secs.mean() > 0.0);
        assert!(report.switch.finish_old_secs.mean() >= 0.0);
        // The communication overhead stays in the paper's ~1 % ballpark.
        let overhead = report.traffic_switch_window.overhead();
        assert!(overhead > 0.002 && overhead < 0.08, "overhead {overhead}");
    }
}

#[test]
fn identical_seeds_reproduce_identical_results() {
    let config = ScenarioConfig::quick(70, Algorithm::Fast, Environment::Static);
    let a = run_scenario(&config);
    let b = run_scenario(&config);
    assert_eq!(a.report, b.report);
}

/// The ratio-track figures interpolate `ratio_samples` without sorting
/// them, so the report must record them in strictly ascending time order:
/// one sample per period after the switch, cleared at every switch.
#[test]
fn ratio_samples_ascend_strictly_across_serial_switches() {
    let trace = TraceGenerator::new(GeneratorConfig::sized(90, 5)).generate("serial");
    let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
    let peers: Vec<PeerId> = overlay.active_peers().collect();
    let mut system = StreamingSystem::new(
        overlay,
        GossipConfig::paper_default(),
        Box::new(FastSwitchScheduler::new()),
    );
    system.start_initial_source(peers[0]);
    system.run_periods(25);

    for next in [peers[40], peers[70]] {
        system.switch_source(next);
        assert!(
            system.run_until_switched(200) < 200,
            "switch never completed"
        );
        let samples = system.report().ratio_samples;
        assert!(samples.len() > 3, "expected several periods of samples");
        assert!(
            samples.windows(2).all(|w| w[0].secs < w[1].secs),
            "ratio samples out of time order"
        );
        // Each switch starts its own track from its own time origin.
        let first = samples[0].secs;
        assert!(first <= 1.0 + 1e-9, "track restarts at the switch: {first}");
        system.run_periods(10);
    }
}
