//! `steady_100k`: one channel of 100,000 peers with the fast-switch
//! scheduler in lockstep period mode — no churn, no network model.  The
//! peers live in 16 store shards and the 2-worker pool is installed with
//! `set_executor`, so the per-shard scheduling pass fans out over the pool.
//! The channel is streamed to steady playback (every peer started, none
//! stalled), then `advance()` is timed once per period.  The measured
//! periods include the 60 over which the 600-segment buffers fill up, the
//! same periods on every run.
//!
//! After the measured periods the stream is handed to a new source and run
//! until every peer has switched (`switch_source`, `run_until_switched`):
//! the paper's source switch at 100k peers.  No end-to-end metric includes
//! it; the traced run times it for `gossip.switch_*` and
//! `core.switch_share`.
//!
//! An operation is one measured period.  It fails if `periods()` did not
//! advance by exactly 1, if the period delivered no data, or if the QoE
//! row of the period records a stall beginning.  The run is incorrect if
//! the switch does not complete within `max_switch_periods`.

use super::{
    derive_seed, maybe_span, ms, record_bypassed, record_core, record_periods, record_runtime,
    timed, units_for, DIRECTORY_METRICS, NET_METRICS, POOL_WORKERS,
};
use crate::host;
use crate::metrics::Outcome;
use crate::seams::{CoreStats, Spans, TimedExecutor, TimedScheduler};
use crate::stats::{digest, median, ratio};
use crate::{RunConfig, Scale};
use fss_core::FastSwitchScheduler;
use fss_gossip::{GossipConfig, SegmentScheduler, StreamingSystem};
use fss_overlay::{OverlayBuilder, OverlayConfig};
use fss_runtime::WorkerPool;
use fss_sim::exec::JobExecutor;
use fss_trace::{GeneratorConfig, TraceGenerator};
use std::sync::Arc;

/// Size and length of the workload.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Peers in the channel.
    peers: usize,
    /// Peer-store shards (the scheduling pass's chunk unit).
    shards: usize,
    /// Warm-up periods: every peer has started playback by period 5.
    warmup: u64,
    /// Full set-ups per untraced run; `setup_s` is their median.
    setups: usize,
    /// Measured periods per second of `--seconds`: 150 periods, 30–40 s on
    /// the reference host, in a 30-second run.
    periods_per_second: f64,
    /// Measured periods at least.
    min_periods: u64,
    /// Periods the source switch may take at most.
    max_switch_periods: u64,
}

impl Shape {
    /// The shape at `scale`.
    fn at(scale: Scale) -> Shape {
        match scale {
            Scale::Full => Shape {
                peers: 100_000,
                shards: 16,
                warmup: 8,
                setups: 3,
                periods_per_second: 5.0,
                min_periods: 20,
                max_switch_periods: 60,
            },
            Scale::Toy => Shape {
                peers: 1_500,
                shards: 4,
                warmup: 8,
                setups: 2,
                periods_per_second: 1.0,
                min_periods: 4,
                max_switch_periods: 60,
            },
        }
    }
}

/// Builds the channel from `seed` and streams it through the warm-up.
fn build(
    shape: &Shape,
    seed: u64,
    scheduler: Box<dyn SegmentScheduler>,
    executor: Arc<dyn JobExecutor>,
    spans: Option<&Spans>,
) -> StreamingSystem {
    let trace = maybe_span(spans, "trace.generate", || {
        TraceGenerator::new(GeneratorConfig::sized(shape.peers, derive_seed(seed, 1)))
            .generate("steady_100k")
    });
    let overlay = maybe_span(spans, "overlay.build", || {
        OverlayBuilder::new(OverlayConfig {
            seed: derive_seed(seed, 2),
            ..OverlayConfig::default()
        })
        .expect("valid overlay config")
        .build(&trace)
        .expect("overlay construction")
    });
    let source = overlay.active_peers().next().expect("non-empty overlay");
    let mut system = StreamingSystem::new(overlay, GossipConfig::paper_default(), scheduler);
    system.set_shards(shape.shards);
    system.set_executor(executor);
    system.start_initial_source(source);
    maybe_span(spans, "gossip.warmup", || system.run_periods(shape.warmup));
    system
}

/// One measured period: its wall time in ms and whether it passed the
/// operation check.
fn step_checked(system: &mut StreamingSystem) -> (f64, bool) {
    let periods = system.periods();
    let data = system.traffic_total().data_bits;
    let ((), took) = timed(|| system.advance());
    let ok = system.periods() == periods + 1
        && system.traffic_total().data_bits > data
        && system
            .qoe()
            .latest()
            .is_some_and(|row| row.stall_begins == 0);
    (ms(took), ok)
}

/// Hands the stream to the peer in the middle of the active list and runs
/// until every peer has switched.  Returns the periods it took.
fn switch_tail(system: &mut StreamingSystem, max_periods: u64) -> u64 {
    let middle = system.overlay().active_count() / 2;
    let new_source = system
        .overlay()
        .active_peers()
        .nth(middle)
        .expect("non-empty overlay");
    system.switch_source(new_source);
    system.run_until_switched(max_periods)
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Outcome {
    let shape = Shape::at(config.scale);
    let periods = units_for(config.seconds, shape.periods_per_second, shape.min_periods);
    let pool = Arc::new(WorkerPool::new(POOL_WORKERS));
    let mut outcome = Outcome::default();
    outcome.note(format!(
        "shape: peers={} shards={} warmup_periods={} measured_periods={periods} \
         pool_workers={POOL_WORKERS} mode=lockstep scheduler=fast churn=off \
         switch=after_measured_periods",
        shape.peers, shape.shards, shape.warmup
    ));
    let (system, switch_periods) = if config.trace {
        run_traced(&shape, config.seed, periods, &pool, &mut outcome)
    } else {
        run_plain(&shape, config.seed, periods, &pool, &mut outcome)
    };

    let report = system.report();
    let mem = report.mem;
    let switched = report.switch_completed_secs.is_some();
    outcome.correct &= switched && report.periods == shape.warmup + periods + switch_periods;
    outcome.note(format!(
        "switch: completed={switched} after {switch_periods} periods"
    ));
    outcome.note(format!(
        "working_set: {:.1} MB of peer state ({:.0} B/peer) vs LLC {:.1} MiB",
        mem.peer_bytes as f64 / 1e6,
        mem.bytes_per_peer(),
        host::llc_bytes() as f64 / f64::from(1u32 << 20)
    ));
    outcome.note(format!(
        "digest: {} (Debug of the SystemReport after {} periods)",
        digest(&report),
        report.periods
    ));
    if !config.trace {
        outcome.set("bytes_per_peer", mem.bytes_per_peer());
        outcome.set("peak_rss_mb", host::peak_rss_mb());
    }
    outcome
}

fn run_plain(
    shape: &Shape,
    seed: u64,
    periods: u64,
    pool: &Arc<WorkerPool>,
    outcome: &mut Outcome,
) -> (StreamingSystem, u64) {
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..shape.setups {
        drop(kept.take());
        let (system, took) = timed(|| {
            build(
                shape,
                seed,
                Box::new(FastSwitchScheduler::new()),
                pool.as_executor(),
                None,
            )
        });
        setup_s.push(took.as_secs_f64());
        kept = Some(system);
    }
    let mut system = kept.expect("at least one set-up");

    let mut samples = Vec::new();
    let mut failed = 0;
    let ((), run) = timed(|| {
        for _ in 0..periods {
            let (period_ms, ok) = step_checked(&mut system);
            samples.push(period_ms);
            failed += u64::from(!ok);
        }
    });
    // Untimed, so that the report (and its digest) matches the traced run's.
    let switch_periods = switch_tail(&mut system, shape.max_switch_periods);

    outcome.attempted = periods;
    outcome.failed = failed;
    outcome.correct = failed == 0;
    outcome.note(format!(
        "setup_s: median of {} set-ups {:?}",
        setup_s.len(),
        setup_s
    ));
    outcome.set("setup_s", median(&setup_s));
    outcome.set("run_s", run.as_secs_f64());
    outcome.set(
        "peer_periods_per_s",
        shape.peers as f64 * periods as f64 / run.as_secs_f64(),
    );
    record_periods(outcome, "one advance() each", &samples);
    (system, switch_periods)
}

fn run_traced(
    shape: &Shape,
    seed: u64,
    periods: u64,
    pool: &Arc<WorkerPool>,
    outcome: &mut Outcome,
) -> (StreamingSystem, u64) {
    let spans = Spans::new();
    let core = CoreStats::new();
    let executor = TimedExecutor::new(Arc::clone(pool), Some(spans.clone()));
    let scheduler = TimedScheduler::new(Box::new(FastSwitchScheduler::new()), Arc::clone(&core));
    let mut system = spans.time("setup", || {
        build(
            shape,
            seed,
            Box::new(scheduler),
            executor.clone(),
            Some(&spans),
        )
    });
    let segment_bits = system.config().segment_bits as f64;

    // Even periods run traced (decorators recording, timed executor
    // installed), odd periods plain; the two medians give the overhead.
    let core_before = core.snapshot();
    let rt_before = executor.stats();
    let (mut traced_ms, mut plain_ms, mut serial_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut grants, mut control_bits) = (0.0, 0.0);
    let mut failed = 0;
    for i in 0..periods {
        let traced = i % 2 == 0;
        core.set_enabled(traced);
        if traced {
            system.set_executor(executor.clone());
        } else {
            system.set_executor(pool.as_executor());
        }
        let traffic = system.traffic_total();
        let dispatched = executor.stats().wall_ns;
        let (period_ms, ok) = if traced {
            let _span = spans.enter("gossip.period");
            step_checked(&mut system)
        } else {
            step_checked(&mut system)
        };
        failed += u64::from(!ok);
        if traced {
            let after = system.traffic_total();
            grants += (after.data_bits - traffic.data_bits) as f64 / segment_bits;
            control_bits += (after.control_bits - traffic.control_bits) as f64;
            let dispatch_ms = (executor.stats().wall_ns - dispatched) as f64 / 1e6;
            traced_ms.push(period_ms);
            serial_ms.push(period_ms - dispatch_ms);
        } else {
            plain_ms.push(period_ms);
        }
    }
    core.set_enabled(true);
    let core_delta = core.snapshot().since(&core_before);
    let rt_delta = executor.stats().since(&rt_before);
    let traced_periods = traced_ms.len() as f64;

    // The source switch, traced as a whole on the plain pool executor.
    system.set_executor(pool.as_executor());
    let switch_before = core.snapshot();
    let switch_periods = spans.time("gossip.switch", || {
        switch_tail(&mut system, shape.max_switch_periods)
    });
    let switch_core = core.snapshot().since(&switch_before);

    let active = system.overlay().active_count() as f64;
    let report = spans.time("metrics.report", || system.report());
    let _ = spans.time("metrics.mem_meter", || system.memory_usage());
    drop(report);

    outcome.attempted = periods;
    outcome.failed = failed;
    outcome.correct = failed == 0;
    let requests = core_delta.requests as f64 / traced_periods;
    outcome.set(
        "trace.overhead",
        ratio(median(&traced_ms), median(&plain_ms)) - 1.0,
    );
    outcome.set("trace.generate_ms", spans.total_ms("trace.generate"));
    outcome.set("overlay.build_ms", spans.total_ms("overlay.build"));
    outcome.set("gossip.warmup_ms", spans.total_ms("gossip.warmup"));
    outcome.set("gossip.period_ms", median(&traced_ms));
    outcome.set("gossip.serial_ms", median(&serial_ms));
    outcome.set("gossip.requests", requests);
    outcome.set("gossip.grants", grants / traced_periods);
    outcome.set(
        "gossip.grant_ratio",
        ratio(grants / traced_periods, requests),
    );
    outcome.set(
        "gossip.control_bits_per_peer",
        control_bits / traced_periods / active,
    );
    outcome.set("gossip.switch_ms", spans.total_ms("gossip.switch"));
    outcome.set("gossip.switch_periods", switch_periods as f64);
    record_core(outcome, &core_delta, traced_periods);
    // Steady periods never know two sessions; the switch's periods do.
    outcome.set(
        "core.switch_share",
        ratio(switch_core.switch_calls as f64, switch_core.calls as f64),
    );
    record_runtime(outcome, &rt_delta, traced_periods, executor.workers());
    record_bypassed(outcome, NET_METRICS);
    record_bypassed(outcome, DIRECTORY_METRICS);
    outcome.set("metrics.report_ms", spans.total_ms("metrics.report"));
    outcome.set("metrics.mem_meter_ms", spans.total_ms("metrics.mem_meter"));
    outcome.note(format!(
        "traced: {} traced and {} plain periods alternating, then the source switch; \
         core.switch_share is over the switch's periods, every other core.* metric over \
         the traced periods; trace.overhead = median traced / median plain − 1 \
         ({:.4} / {:.4} ms)",
        traced_ms.len(),
        plain_ms.len(),
        median(&traced_ms),
        median(&plain_ms)
    ));
    outcome.notes.extend(spans.summary_lines());
    (system, switch_periods)
}
