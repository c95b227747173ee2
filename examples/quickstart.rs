//! Quick start: compare the fast and normal source-switch algorithms on a
//! small static overlay and print the headline metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use fast_source_switching::prelude::*;

fn main() {
    // A 300-node static overlay with the paper's protocol parameters
    // (τ = 1 s, p = 10 segments/s, B = 600, Q = 10, Qs = 50, M = 5).
    let config = ScenarioConfig::paper(300, Algorithm::Fast, Environment::Static);

    println!(
        "running the fast and normal switch algorithms on {} nodes...",
        config.nodes
    );
    let comparison = run_comparison(&config);

    let (fast, normal) = (&comparison.fast.report, &comparison.normal.report);
    println!();
    println!("                         normal      fast");
    println!(
        "avg finishing time of S1 {:>7.2}s  {:>7.2}s",
        normal.switch.finish_old_secs.mean(),
        fast.switch.finish_old_secs.mean()
    );
    println!(
        "avg preparing time of S2 {:>7.2}s  {:>7.2}s   (= average switch time)",
        normal.switch.prepare_new_secs.mean(),
        fast.switch.prepare_new_secs.mean()
    );
    println!(
        "communication overhead   {:>7.4}   {:>7.4}",
        normal.traffic_switch_window.overhead(),
        fast.traffic_switch_window.overhead()
    );
    println!(
        "\nreduction ratio of the average switch time: {:.1}%",
        comparison.reduction_ratio() * 100.0
    );
    println!(
        "every node completed the switch: fast={} normal={}",
        fast.switch_completed_secs.is_some(),
        normal.switch_completed_secs.is_some()
    );
}
