//! `zap_event`: a `SessionManager` with 8 channels × 1,000 viewers on the
//! event-mode network (`latency_scale` 1, 1 % loss, 10 ms jitter), stepped
//! pipelined in blocks of `run_ahead` periods.
//!
//! Viewers zap at 2 % per period to Zipf(1.1)-ranked channels, with a
//! 200-viewer `Storm` every 32 periods after the warm-up, through
//! rate-limited admission.  After the measured blocks the zapping stops
//! and the session drains, so every queued arrival is admitted and every
//! admitted one has had time to start.
//!
//! Channel churn is off: a churned-out arrival that had not started yet is
//! indistinguishable in the report from one that never could, and every
//! joiner takes a fresh peer slot, so churn would grow the process by about
//! 100 MB per second of run.  The benchmark does not measure churn
//! repair.
//!
//! An operation is one zap arrival.  It fails if it never reached
//! playback although it stayed: after the drain it is still queued, or it
//! is an active viewer that has not started playback and joined at least
//! `stuck_periods` (8) periods before the end.  Arrivals that zapped
//! away again before starting are counted in the report's `pending` but
//! are not failures.

use super::{
    derive_seed, maybe_span, ms, record_bypassed, record_core, record_periods, timed, units_for,
    POOL_WORKERS,
};
use crate::host;
use crate::metrics::Outcome;
use crate::seams::{CoreStats, Spans, TimedScheduler};
use crate::stats::{digest, median, ratio};
use crate::{RunConfig, Scale};
use fss_core::FastSwitchScheduler;
use fss_gossip::{NetStats, SegmentScheduler};
use fss_overlay::{NetworkConfig, OverlayBuilder, OverlayConfig};
use fss_runtime::zap::{CrowdZap, Storm, ZapBatch};
use fss_runtime::{
    AdmissionControl, RuntimeReport, SessionConfig, SessionManager, SteppingMode, WorkerPool,
    ZapSchedule,
};
use fss_trace::{GeneratorConfig, TraceGenerator};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// Size and length of the workload.
#[derive(Debug, Clone, Copy)]
struct Shape {
    /// Channels.
    channels: usize,
    /// Viewers per channel at start.
    viewers: usize,
    /// Warm-up periods without zapping (buffers full after 60).
    warmup: u64,
    /// Full set-ups per untraced run; `setup_s` is their median.
    setups: usize,
    /// Pipelined run-ahead bound; one measured block is this many periods.
    run_ahead: u64,
    /// Measured blocks per second of `--seconds`: 150 blocks, about 30 s on
    /// the reference host, in a 30-second run.
    blocks_per_second: f64,
    /// Measured blocks at least.
    min_blocks: u64,
    /// Quiet periods after the measured blocks.
    drain: u64,
    /// A viewer not started this many periods after joining is stuck.
    stuck_periods: u64,
    /// Periods between storms.
    storm_every: u64,
    /// Viewers converging per storm.
    storm_size: usize,
    /// Admissions per channel per period boundary.
    admit_per_period: usize,
}

impl Shape {
    /// The shape at `scale`.
    fn at(scale: Scale) -> Shape {
        match scale {
            Scale::Full => Shape {
                channels: 8,
                viewers: 1_000,
                warmup: 64,
                setups: 3,
                run_ahead: 8,
                blocks_per_second: 5.0,
                min_blocks: 16,
                drain: 16,
                stuck_periods: 8,
                storm_every: 32,
                storm_size: 200,
                admit_per_period: 128,
            },
            Scale::Toy => Shape {
                channels: 3,
                viewers: 120,
                warmup: 8,
                setups: 2,
                run_ahead: 4,
                blocks_per_second: 1.0,
                min_blocks: 4,
                drain: 12,
                stuck_periods: 8,
                storm_every: 4,
                storm_size: 20,
                admit_per_period: 16,
            },
        }
    }

    fn session_config(&self, seed: u64) -> SessionConfig {
        SessionConfig {
            seed: derive_seed(seed, 21),
            admission: AdmissionControl::rate_limited(self.admit_per_period),
            network: Some(NetworkConfig {
                latency_scale: 1.0,
                loss_rate: 0.01,
                jitter_ms: 10,
                ..NetworkConfig::default()
            }),
            ..SessionConfig::paper_default(self.channels, self.viewers)
        }
    }
}

/// The Zipf-plus-storms schedule, silenced for the drain.
struct Quieting {
    inner: CrowdZap,
    quiet: Arc<AtomicBool>,
}

impl ZapSchedule for Quieting {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn batches_at(&mut self, period: u64, out: &mut Vec<ZapBatch>) {
        // Set and read on the manager thread, between run_periods calls.
        if !self.quiet.load(Ordering::Relaxed) {
            self.inner.batches_at(period, out);
        }
    }
}

/// Builds the session from `seed` and warms it up; returns it with the
/// switch that silences zapping.
fn build(
    shape: &Shape,
    seed: u64,
    measured_periods: u64,
    pool: &Arc<WorkerPool>,
    core: Option<&Arc<CoreStats>>,
    spans: Option<&Spans>,
) -> (SessionManager, Arc<AtomicBool>) {
    let config = shape.session_config(seed);
    let mut manager = maybe_span(spans, "runtime.session_build", || {
        SessionManager::new(config, Arc::clone(pool), || -> Box<dyn SegmentScheduler> {
            match core {
                Some(core) => Box::new(TimedScheduler::new(
                    Box::new(FastSwitchScheduler::new()),
                    Arc::clone(core),
                )),
                None => Box::new(FastSwitchScheduler::new()),
            }
        })
    });
    manager.set_mode(SteppingMode::Pipelined {
        run_ahead: shape.run_ahead,
    });
    let horizon = shape.warmup + measured_periods;
    let storms = (shape.warmup + shape.storm_every / 2..horizon)
        .step_by(shape.storm_every as usize)
        .enumerate()
        .map(|(k, at)| Storm {
            at,
            target: (k * 3) % shape.channels,
            size: shape.storm_size,
        })
        .collect();
    let quiet = Arc::new(AtomicBool::new(false));
    manager.set_zap_schedule(Box::new(Quieting {
        inner: CrowdZap::zipf(
            shape.channels,
            shape.viewers,
            config.zap_fraction,
            1.1,
            derive_seed(seed, 23),
        )
        .with_storms(storms),
        quiet: Arc::clone(&quiet),
    }));
    maybe_span(spans, "gossip.warmup", || manager.warmup(shape.warmup));
    (manager, quiet)
}

/// Viewers, over every channel, that are active, have not started playback
/// and joined at least `stuck_periods` periods ago.  A joiner's start point
/// is its neighbours' play point, which advances `play_rate` segments per
/// period, so "joined long ago" is a start point that far behind the
/// channel's most advanced viewer.
fn stuck_viewers(manager: &SessionManager, stuck_periods: u64) -> usize {
    (0..manager.channels())
        .map(|c| {
            let system = manager.channel_system(c);
            let lag = (stuck_periods as f64 * system.config().play_rate) as u64;
            let peers: Vec<_> = system.overlay().active_peers().collect();
            let front = peers
                .iter()
                .map(|&p| system.peer(p).id_play().0)
                .max()
                .unwrap_or(0);
            peers
                .iter()
                .filter(|&&p| {
                    let playback = system.peer(p).playback();
                    !playback.has_started() && playback.join_point().0 + lag <= front
                })
                .count()
        })
        .sum()
}

fn net_total(manager: &SessionManager) -> NetStats {
    let mut total = NetStats::default();
    for c in 0..manager.channels() {
        let s = manager.channel_system(c).network_stats();
        total.requests_blinded += s.requests_blinded;
        total.requests_lost += s.requests_lost;
        total.data_sent += s.data_sent;
        total.data_lost += s.data_lost;
        total.data_delivered += s.data_delivered;
        total.data_stale += s.data_stale;
        total.max_in_flight = total.max_in_flight.max(s.max_in_flight);
    }
    total
}

/// Runs the workload.
pub fn run(config: &RunConfig) -> Outcome {
    let shape = Shape::at(config.scale);
    let blocks = units_for(config.seconds, shape.blocks_per_second, shape.min_blocks);
    let measured_periods = blocks * shape.run_ahead;
    let pool = Arc::new(WorkerPool::new(POOL_WORKERS));
    let mut outcome = Outcome::default();
    outcome.note(format!(
        "shape: channels={} viewers={} warmup_periods={} blocks={blocks}x{} drain_periods={} \
         zapping=zipf(1.1)@2% storms={}/{}periods admission=rate_limited({}) churn=off \
         network=latency1.0,loss0.01,jitter10ms pool_workers={POOL_WORKERS}",
        shape.channels,
        shape.viewers,
        shape.warmup,
        shape.run_ahead,
        shape.drain,
        shape.storm_size,
        shape.storm_every,
        shape.admit_per_period
    ));

    let spans = config.trace.then(Spans::new);
    let core = config.trace.then(CoreStats::new);
    if let Some(spans) = &spans {
        replay_channel_builds(&shape, config.seed, spans);
    }
    let mut setup_s = Vec::new();
    let mut kept = None;
    let setups = if config.trace { 1 } else { shape.setups };
    for _ in 0..setups {
        drop(kept.take());
        let (built, took) = timed(|| {
            build(
                &shape,
                config.seed,
                measured_periods,
                &pool,
                core.as_ref(),
                spans.as_ref(),
            )
        });
        setup_s.push(took.as_secs_f64());
        kept = Some(built);
    }
    let (mut manager, quiet) = kept.expect("at least one set-up");

    // Measured blocks.  Traced runs alternate traced and plain blocks.
    let dispatches = pool.dispatches();
    let net_before = net_total(&manager);
    let cpu_before = host::process_cpu_secs();
    let core_before = core.as_ref().map(|c| c.snapshot());
    let (mut traced_ms, mut plain_ms) = (Vec::new(), Vec::new());
    let ((), run) = timed(|| {
        for i in 0..blocks {
            let traced = core.is_some() && i % 2 == 0;
            if let Some(core) = &core {
                core.set_enabled(traced);
            }
            let ((), took) = timed(|| manager.run_periods(shape.run_ahead));
            let per_period = ms(took) / shape.run_ahead as f64;
            if traced {
                traced_ms.push(per_period);
            } else {
                plain_ms.push(per_period);
            }
        }
    });
    let cpu = host::process_cpu_secs() - cpu_before;
    let dispatches = pool.dispatches() - dispatches;
    let net = net_total(&manager);
    if let Some(core) = &core {
        core.set_enabled(true);
    }

    // Drain: no more zapping; queues empty, arrivals start.
    quiet.store(true, Ordering::Relaxed);
    manager.run_periods(shape.drain);
    let report: RuntimeReport = maybe_span(spans.as_ref(), "metrics.report", || manager.report());
    maybe_span(spans.as_ref(), "metrics.mem_meter", || {
        (0..manager.channels())
            .map(|c| manager.channel_system(c).memory_usage().peer_bytes)
            .sum::<u64>()
    });

    let zaps = report.total_zaps() as u64;
    let stuck = stuck_viewers(&manager, shape.stuck_periods) as u64;
    let queued = report.admission.still_queued as u64;
    let conserved = report
        .channels
        .iter()
        .all(|c| c.zaps_in == c.zap_latency.zaps());
    let periods_ok = report.periods == shape.warmup + measured_periods + shape.drain;
    outcome.attempted = zaps;
    outcome.failed = (stuck + queued).min(zaps);
    outcome.correct = outcome.failed == 0 && conserved && periods_ok && zaps > 0;
    outcome.note(format!(
        "ops: zap arrivals={zaps} completed={} left_before_start={} still_queued={queued} \
         stuck_viewers={stuck} conserved={conserved}",
        report.cross_channel_zaps.completed,
        report.cross_channel_zaps.pending as u64
            - queued.min(report.cross_channel_zaps.pending as u64),
    ));
    outcome.note(format!(
        "working_set: {:.1} MB of peer state over {} viewers vs LLC {:.1} MiB",
        report.mem.peer_state_bytes as f64 / 1e6,
        report.mem.active_peers,
        host::llc_bytes() as f64 / f64::from(1u32 << 20)
    ));
    outcome.note(format!(
        "digest: {} (Debug of the RuntimeReport after {} periods)",
        digest(&report),
        report.periods
    ));

    let viewers = (shape.channels * shape.viewers) as f64;
    let periods_f = measured_periods as f64;
    match (&spans, &core, &core_before) {
        (Some(spans), Some(core), Some(core_before)) => {
            let core_delta = core.snapshot().since(core_before);
            let traced_periods = traced_ms.len() as f64 * shape.run_ahead as f64;
            let requests = core_delta.requests as f64 / traced_periods;
            let segment_bits = manager.channel_system(0).config().segment_bits as f64;
            let grants = (net.data_sent - net_before.data_sent) as f64 / periods_f;
            let data_bits: u64 = report.channels.iter().map(|c| c.traffic.data_bits).sum();
            let control_bits: u64 = report.channels.iter().map(|c| c.traffic.control_bits).sum();
            let all_periods = report.periods as f64;
            outcome.set(
                "trace.overhead",
                ratio(median(&traced_ms), median(&plain_ms)) - 1.0,
            );
            outcome.set("trace.generate_ms", spans.total_ms("trace.generate"));
            outcome.set("overlay.build_ms", spans.total_ms("overlay.build"));
            outcome.set("gossip.warmup_ms", spans.total_ms("gossip.warmup"));
            outcome.set("gossip.period_ms", median(&traced_ms));
            // The channels' own scheduling passes run in-line (one shard
            // each), so a period has no pool-dispatched part of its own.
            outcome.set("gossip.serial_ms", median(&traced_ms));
            outcome.set("gossip.requests", requests);
            outcome.set("gossip.grants", grants);
            outcome.set("gossip.grant_ratio", ratio(grants, requests));
            outcome.set(
                "gossip.control_bits_per_peer",
                control_bits as f64 / viewers / all_periods,
            );
            record_bypassed(&mut outcome, &["gossip.switch_ms", "gossip.switch_periods"]);
            record_core(&mut outcome, &core_delta, traced_periods);
            outcome.set("runtime.dispatches", dispatches as f64 / periods_f);
            // The session takes a concrete pool, so dispatches cannot be
            // timed one by one; efficiency comes from process CPU time.
            record_bypassed(
                &mut outcome,
                &[
                    "runtime.chunks_per_dispatch",
                    "runtime.dispatch_ms",
                    "runtime.chunk_busy_ms",
                    "runtime.imbalance",
                ],
            );
            outcome.set(
                "runtime.efficiency",
                cpu / (POOL_WORKERS as f64 * run.as_secs_f64()),
            );
            let sent = (net.data_sent - net_before.data_sent) as f64;
            outcome.set("net.data_sent", sent / periods_f);
            outcome.set(
                "net.delivered_ratio",
                ratio(
                    (net.data_delivered - net_before.data_delivered) as f64,
                    sent,
                ),
            );
            outcome.set(
                "net.lost",
                (net.data_lost - net_before.data_lost) as f64 / periods_f,
            );
            outcome.set(
                "net.stale",
                (net.data_stale - net_before.data_stale) as f64 / periods_f,
            );
            outcome.set(
                "net.requests_blinded",
                (net.requests_blinded - net_before.requests_blinded) as f64 / periods_f,
            );
            outcome.set(
                "net.requests_lost",
                (net.requests_lost - net_before.requests_lost) as f64 / periods_f,
            );
            outcome.set("net.max_in_flight", net.max_in_flight as f64);
            outcome.set("directory.zaps", zaps as f64 / periods_f);
            outcome.set("directory.admitted", report.admission.admitted as f64);
            outcome.set("directory.deferred", report.admission.deferred as f64);
            outcome.set(
                "directory.max_queue_depth",
                report.admission.max_queue_depth as f64,
            );
            outcome.set("metrics.report_ms", spans.total_ms("metrics.report"));
            outcome.set("metrics.mem_meter_ms", spans.total_ms("metrics.mem_meter"));
            outcome.note(format!(
                "traced: {} traced and {} plain blocks alternating; trace.overhead = median \
                 traced / median plain − 1 ({:.4} / {:.4} ms per period); data grants = \
                 data messages sent ({:.0} bits each, {} data bits in total)",
                traced_ms.len(),
                plain_ms.len(),
                median(&traced_ms),
                median(&plain_ms),
                segment_bits,
                data_bits
            ));
            outcome.notes.extend(spans.summary_lines());
        }
        _ => {
            outcome.note(format!(
                "setup_s: median of {} set-ups {setup_s:?}",
                setup_s.len()
            ));
            outcome.set("setup_s", median(&setup_s));
            outcome.set("run_s", run.as_secs_f64());
            outcome.set(
                "peer_periods_per_s",
                viewers * periods_f / run.as_secs_f64(),
            );
            record_periods(&mut outcome, "one pipelined block / run_ahead", &plain_ms);
            outcome.set("peak_rss_mb", host::peak_rss_mb());
            outcome.set(
                "bytes_per_peer",
                report.mem.peer_state_bytes as f64 / report.mem.active_peers as f64,
            );
        }
    }
    outcome
}

/// The session builds each channel's trace and overlay inside
/// `SessionManager::new`; the traced run times the same two calls for
/// every channel on the same inputs (channel seeds derived as the session
/// derives them) as `trace.generate` and `overlay.build`.
fn replay_channel_builds(shape: &Shape, seed: u64, spans: &Spans) {
    let master = shape.session_config(seed).seed;
    for c in 0..shape.channels {
        let channel_seed = master.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(c as u64 + 1));
        let trace = spans.time("trace.generate", || {
            TraceGenerator::new(GeneratorConfig::sized(shape.viewers, channel_seed))
                .generate(format!("channel-{c}"))
        });
        spans.time("overlay.build", || {
            OverlayBuilder::new(OverlayConfig {
                min_degree: 5,
                seed: channel_seed ^ 0x00C4_A11E,
                ..OverlayConfig::default()
            })
            .expect("valid overlay config")
            .build(&trace)
            .expect("channel overlay construction")
        });
    }
}
