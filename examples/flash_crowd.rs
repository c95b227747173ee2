//! Popularity-skewed zapping with a flash-crowd storm, stepped as a
//! pipeline.
//!
//! Six channels with Zipf(1.1)-skewed popularity (channel 0 the most
//! popular) stream to 600 viewers; halfway through the run a flash crowd
//! of 120 viewers converges on channel 0 within a single period — the
//! hardest case for the join path.  Channels advance as a dependency-
//! tracked pipeline (a zap batch synchronises only its two endpoint
//! channels); the example runs it with the default run-ahead bound and
//! with run-ahead 1 (lockstep), asserts the two reports are byte-identical
//! and prints the wall-clock of each.
//!
//! The example then re-runs the same workload with the membership
//! directory's storm-time admission control enabled
//! (`max_admits_per_period = 16`): the crowd queues at the target channel
//! and admits over several boundaries — the queue-depth timeline and the
//! admission-delay distribution are printed.
//!
//! Finally the streaming-QoE telemetry collected *during* the runs is
//! shown: the bounded stall timeline (startups, stalled-peer peaks and
//! per-window continuity across the storm) and the scorecard diff between
//! the unlimited and rate-limited runs — the artefact the telemetry layer
//! exists to produce (see `docs/observability.md`).
//!
//! ```text
//! cargo run --release --example flash_crowd
//! ```

use fast_source_switching::experiments::Algorithm;
use fast_source_switching::runtime::zap::{CrowdZap, Storm};
use fast_source_switching::runtime::{
    AdmissionControl, RuntimeReport, SessionConfig, SessionManager, SteppingMode, WorkerPool,
};
use std::sync::Arc;
use std::time::Instant;

const CHANNELS: usize = 6;
const VIEWERS_PER_CHANNEL: usize = 100;
const WARMUP: u64 = 40;
const MEASURE: u64 = 80;
const STORM_SIZE: usize = 120;
const ADMITS_PER_PERIOD: usize = 16;

fn run(pool: &Arc<WorkerPool>, mode: SteppingMode) -> (RuntimeReport, std::time::Duration) {
    run_with(pool, mode, AdmissionControl::unlimited())
}

fn run_with(
    pool: &Arc<WorkerPool>,
    mode: SteppingMode,
    admission: AdmissionControl,
) -> (RuntimeReport, std::time::Duration) {
    let config = SessionConfig {
        admission,
        ..SessionConfig::paper_default(CHANNELS, VIEWERS_PER_CHANNEL)
    };
    let mut manager = SessionManager::new(config, Arc::clone(pool), || Algorithm::Fast.scheduler());
    manager.set_zap_schedule(Box::new(
        CrowdZap::zipf(
            CHANNELS,
            VIEWERS_PER_CHANNEL,
            config.zap_fraction,
            1.1,
            config.seed,
        )
        .with_storms(vec![Storm {
            at: WARMUP + MEASURE / 2,
            target: 0,
            size: STORM_SIZE,
        }]),
    ));
    manager.set_mode(mode);
    #[expect(
        clippy::disallowed_methods,
        reason = "examples print wall-clock progress for humans; the simulation results they show are still pure functions of the configured seeds"
    )]
    let start = Instant::now();
    manager.warmup(WARMUP);
    manager.run_periods(MEASURE);
    let elapsed = start.elapsed();
    (manager.report(), elapsed)
}

fn main() {
    let pool = Arc::new(WorkerPool::with_available_parallelism());
    println!(
        "streaming {CHANNELS} channels x {VIEWERS_PER_CHANNEL} viewers, zipf(1.1) popularity, \
         {STORM_SIZE}-viewer storm on channel 0 at period {} ({} pool workers)...",
        WARMUP + MEASURE / 2,
        pool.workers()
    );

    let (report, pipelined_secs) = run(&pool, SteppingMode::pipelined());
    let (lockstep_report, lockstep_secs) = run(&pool, SteppingMode::Pipelined { run_ahead: 1 });
    assert_eq!(
        report, lockstep_report,
        "running ahead and lockstep must agree bit for bit"
    );

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
        "workload {:10}  {} zaps, avg startup {:.2}s, p95 {:.2}s, {:.1}% reached playback",
        report.workload,
        report.total_zaps(),
        z.avg_startup_secs,
        z.p95_startup_secs,
        z.completion_rate() * 100.0
    );
    println!(
        "zap load: channel {} takes {:.0}% of all arrivals, gini {:.2}",
        report.zap_load.busiest_channel,
        report.zap_load.busiest_share * 100.0,
        report.zap_load.gini
    );
    println!(
        "wall-clock: run-ahead 8 {:.2?} vs lockstep {:.2?} (identical reports)",
        pipelined_secs, lockstep_secs
    );

    // --- storm-time admission control ---------------------------------
    println!();
    println!(
        "re-running with admission control: each channel admits at most \
         {ADMITS_PER_PERIOD} zap arrivals per period boundary"
    );
    let (limited, _) = run_with(
        &pool,
        SteppingMode::pipelined(),
        AdmissionControl::rate_limited(ADMITS_PER_PERIOD),
    );
    let a = &limited.admission;
    println!(
        "admissions: {} arrivals ({} deferred >=1 boundary, {} still queued), \
         delay avg {:.2}s / p95 {:.2}s / max {:.2}s, peak queue {}",
        a.admitted,
        a.deferred,
        a.still_queued,
        a.avg_delay_secs,
        a.p95_delay_secs,
        a.max_delay_secs,
        a.max_queue_depth
    );
    println!(
        "zap latency with the queue: avg {:.2}s vs {:.2}s unlimited (queue wait included)",
        limited.cross_channel_zaps.avg_startup_secs, z.avg_startup_secs
    );

    // Queue-depth timeline around the storm boundary (zero elsewhere).
    println!();
    println!(
        "queue-depth timeline (bounded: {} periods per window; peak total \
         queued, # = 4 viewers):",
        limited.queue_depth.stride()
    );
    let storm_at = WARMUP + MEASURE / 2;
    for w in limited
        .queue_depth
        .windows()
        .skip_while(|w| w.start_period + w.periods + 2 <= storm_at)
        .take_while(|w| w.start_period < storm_at + 2 || w.peak > 0)
    {
        println!(
            "  {:>4}..{:<4}  {:>3}  {}",
            w.start_period,
            w.start_period + w.periods,
            w.peak,
            "#".repeat((w.peak as usize).div_ceil(4))
        );
    }

    // --- streaming QoE telemetry --------------------------------------
    println!();
    println!(
        "QoE stall timeline of the rate-limited run (bounded: {} windows of \
         {} periods each; # = 2 stalled peers at the window's peak):",
        limited.qoe_timeline.slots().len(),
        limited.qoe_timeline.stride()
    );
    println!("  window    startups  stall-beg  stalled-peak  continuity");
    for w in limited.qoe_timeline.windows() {
        let continuity = w
            .continuity()
            .map_or_else(|| "    -".to_string(), |c| format!("{:.4}", c));
        println!(
            "  {:>4}..{:<4}  {:>7}  {:>9}  {:>12}  {}  {}",
            w.start_period,
            w.start_period + w.periods,
            w.startups,
            w.stall_begins,
            w.stalled_peak,
            continuity,
            "#".repeat((w.stalled_peak as usize).div_ceil(2))
        );
    }

    println!();
    println!("scorecard diff: unlimited admission -> {ADMITS_PER_PERIOD} admits/period");
    println!("{}", report.scorecard.diff(&limited.scorecard));
}
