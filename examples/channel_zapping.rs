//! Channel zapping: four concurrent streams, viewers hopping between them.
//!
//! The paper measures how fast a *stream* switches its source; this example
//! measures the dual — how fast a *viewer* switches streams.  A
//! `SessionManager` hosts four independent channels sharded over the
//! persistent worker pool; every period 2 % of each channel's viewers zap
//! to another channel and the delay until their playback resumes there is
//! recorded as zap latency.
//!
//! ```text
//! cargo run --release --example channel_zapping
//! ```

use fast_source_switching::experiments::{run_channel_zapping, ZappingScenario};
use fast_source_switching::runtime::WorkerPool;
use std::sync::Arc;

fn main() {
    let scenario = ZappingScenario::paper(4, 150);
    let pool = Arc::new(WorkerPool::with_available_parallelism());
    println!(
        "streaming {} channels x {} viewers for {} periods ({} warm-up) on {} pool worker(s), zap rate {:.0}%/period...",
        scenario.session.channels,
        scenario.session.viewers_per_channel,
        scenario.measure_periods,
        scenario.warmup_periods,
        pool.workers(),
        scenario.session.zap_fraction * 100.0
    );

    let report = run_channel_zapping(&scenario, &pool);

    println!();
    println!("channel  viewers  zaps-in  zaps-out  avg-zap-latency  p95   completion");
    for c in &report.channels {
        println!(
            "{:>7}  {:>7}  {:>7}  {:>8}  {:>13.2}s  {:>4.1}s  {:>9.1}%",
            c.channel,
            c.viewers,
            c.zaps_in,
            c.zaps_out,
            c.zap_latency.avg_startup_secs,
            c.zap_latency.p95_startup_secs,
            c.zap_latency.completion_rate() * 100.0
        );
    }
    let z = &report.cross_channel_zaps;
    println!();
    println!(
        "cross-channel: {} zaps, avg startup {:.2}s, p95 {:.2}s, max {:.2}s, {:.1}% reached playback",
        z.zaps(),
        z.avg_startup_secs,
        z.p95_startup_secs,
        z.max_startup_secs,
        z.completion_rate() * 100.0
    );
    println!(
        "zap load: workload {:?}, busiest channel {} with {:.0}% of arrivals, gini {:.2}",
        report.workload,
        report.zap_load.busiest_channel,
        report.zap_load.busiest_share * 100.0,
        report.zap_load.gini
    );
    println!(
        "(deterministic: rerunning on any pool size — or with any run-ahead bound, \
         lockstep included — reproduces this report byte for byte)"
    );
}
