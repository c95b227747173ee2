//! A distance-education session under churn: the lecturer hands over to a
//! guest speaker while 5 % of the audience leaves and 5 % joins every second
//! (the paper's dynamic environment).
//!
//! The example compares the fast and the normal switch algorithm on the
//! identical churned workload and prints the per-second ratio tracks, i.e.
//! the data behind Figure 9.
//!
//! ```text
//! cargo run --release --example distance_learning_churn
//! ```

use fast_source_switching::prelude::*;

fn main() {
    let config = ScenarioConfig::paper(400, Algorithm::Fast, Environment::Dynamic);

    println!(
        "lecture with {} attendees, {}% churn per second; switching lecturer -> guest speaker...",
        config.nodes,
        config.churn_fraction * 100.0
    );
    let comparison = run_comparison(&config);
    let (fast, normal) = (&comparison.fast.report, &comparison.normal.report);

    println!();
    println!("secs  undelivered(lecturer)  delivered(guest)   [fast algorithm]");
    for row in &fast.ratio_samples {
        if row.secs.fract() == 0.0 {
            println!(
                "{:>4}  {:>20.3}  {:>16.3}",
                row.secs, row.undelivered_ratio_s1, row.delivered_ratio_s2
            );
        }
    }

    println!();
    println!(
        "avg switch time: fast {:.2}s vs normal {:.2}s (reduction {:.1}%)",
        fast.switch.prepare_new_secs.mean(),
        normal.switch.prepare_new_secs.mean(),
        comparison.reduction_ratio() * 100.0
    );
    println!(
        "attendees counted in the averages: {} (joiners during the switch follow their \
         neighbours' playback and are excluded, as in the paper)",
        fast.switch.countable_nodes
    );
    println!(
        "communication overhead: fast {:.2}% vs normal {:.2}%",
        fast.traffic_switch_window.overhead() * 100.0,
        normal.traffic_switch_window.overhead() * 100.0
    );
}
