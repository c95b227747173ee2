//! Fault-injection regression suite for the event-driven stepping mode.
//!
//! Two invariants are pinned here:
//!
//! 1. **Degenerate equivalence** — installing the *ideal* network model
//!    (zero latency, zero loss, zero jitter) must reproduce the
//!    period-lockstep golden digests of `golden_report.rs` byte for byte.
//!    The event core is a strict generalisation: at the ideal point every
//!    grant arrives at the boundary that resolved it, in resolver order,
//!    and no fault stream is ever sampled.
//!
//! 2. **Faulty-run determinism** — a lossy, delayed, jittered run is itself
//!    digest-pinned and byte-identical across pool sizes {1, 2, 4, 7} ×
//!    shard counts {1, 2, 4, 8} × run-ahead bounds {1, 4}.  Loss and
//!    jitter draws are stateless hashes (no RNG cursor), so no execution
//!    interleaving can perturb them.
//!
//! A faulty period also runs the lockstep pipeline: the same two pool
//! dispatches, with the arrivals as the fused walk's delivery slice.

use fss_core::FastSwitchScheduler;
use fss_gossip::{GossipConfig, StreamingSystem};
use fss_overlay::{NetworkConfig, OverlayBuilder};
use fss_runtime::zap::{CrowdZap, Storm};
use fss_runtime::{RuntimeReport, SessionConfig, SessionManager, SteppingMode, WorkerPool};
use fss_trace::{GeneratorConfig, TraceGenerator};
use std::hash::Hasher;
use std::sync::Arc;

/// Run-ahead 1: the pipeline's lockstep schedule.
const LOCKSTEP: SteppingMode = SteppingMode::Pipelined { run_ahead: 1 };

/// FxHash-style digest (deterministic across processes, unlike the std
/// `RandomState`).  Mirrors `fss_gossip::hasher::FxHasher64`.
fn fx_digest(text: &str) -> u64 {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;
    struct Fx(u64);
    impl Hasher for Fx {
        fn finish(&self) -> u64 {
            self.0
        }
        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.0 = (self.0.rotate_left(5) ^ b as u64).wrapping_mul(SEED);
            }
        }
    }
    let mut h = Fx(0);
    h.write(text.as_bytes());
    h.finish()
}

/// The pre-directory report surface `golden_report.rs` pins.
fn legacy_surface(report: &RuntimeReport) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    write!(s, "periods={} workload={}", report.periods, report.workload).unwrap();
    for c in &report.channels {
        write!(
            s,
            " | ch{} viewers={} periods={} traffic={:?} in={} out={} lat={:?}",
            c.channel, c.viewers, c.periods, c.traffic, c.zaps_in, c.zaps_out, c.zap_latency
        )
        .unwrap();
    }
    write!(
        s,
        " | cross={:?} load={:?} mem={:?}",
        report.cross_channel_zaps, report.zap_load, report.mem
    )
    .unwrap();
    s
}

/// The streaming-QoE telemetry surface `golden_report.rs` pins.
fn qoe_surface(report: &RuntimeReport) -> String {
    format!(
        "qoe={:?} depth={:?} card={}",
        report.qoe_timeline,
        report.queue_depth,
        report.scorecard.to_text()
    )
}

/// Mirrors `golden_report::run`, with a network model installed.
fn run_golden(
    channels: usize,
    seed: u64,
    mode: SteppingMode,
    churn: bool,
    storms: bool,
    network: NetworkConfig,
) -> RuntimeReport {
    let config = SessionConfig {
        seed,
        network: Some(network),
        ..SessionConfig::paper_default(channels, 40)
    };
    let pool = Arc::new(WorkerPool::new(3));
    let mut m = SessionManager::new(config, pool, || Box::new(FastSwitchScheduler::new()));
    if storms {
        m.set_zap_schedule(Box::new(
            CrowdZap::zipf(channels, 40, config.zap_fraction, 1.2, seed).with_storms(vec![Storm {
                at: 32,
                target: 1,
                size: 25,
            }]),
        ));
    }
    if churn {
        m.enable_channel_churn(5);
    }
    m.set_mode(mode);
    m.warmup(25);
    m.run_periods(30);
    m.report()
}

/// The golden digests of `golden_report.rs`, captured from period-lockstep
/// runs.  The ideal event-driven runs below must land on the same bytes.
const LEGACY_UNIFORM_BARRIER: u64 = 421153501399809134;
const LEGACY_CHURN_STORM_PIPELINED: u64 = 844092618700673579;
const QOE_UNIFORM_BARRIER: u64 = 7323453145858924477;
const QOE_CHURN_STORM_PIPELINED: u64 = 12569093327864263347;

#[test]
fn ideal_event_mode_reproduces_the_uniform_barrier_pins() {
    let report = run_golden(4, 11, LOCKSTEP, false, false, NetworkConfig::ideal());
    let surface = legacy_surface(&report);
    assert_eq!(
        fx_digest(&surface),
        LEGACY_UNIFORM_BARRIER,
        "ideal event mode diverged from period-lockstep:\n{surface}"
    );
    assert_eq!(
        fx_digest(&qoe_surface(&report)),
        QOE_UNIFORM_BARRIER,
        "ideal event mode perturbed the QoE telemetry surface"
    );
}

#[test]
fn ideal_event_mode_reproduces_the_churn_storm_pipelined_pins() {
    let report = run_golden(
        5,
        13,
        SteppingMode::Pipelined { run_ahead: 4 },
        true,
        true,
        NetworkConfig::ideal(),
    );
    let surface = legacy_surface(&report);
    assert_eq!(
        fx_digest(&surface),
        LEGACY_CHURN_STORM_PIPELINED,
        "ideal event mode diverged from period-lockstep:\n{surface}"
    );
    assert_eq!(
        fx_digest(&qoe_surface(&report)),
        QOE_CHURN_STORM_PIPELINED,
        "ideal event mode perturbed the QoE telemetry surface"
    );
}

/// A faulty network that exercises every code path: 12% per-message loss,
/// trace latencies scaled past the period length, and enough jitter to
/// reorder same-link messages.
fn faulty_network() -> NetworkConfig {
    NetworkConfig {
        latency_scale: 3.0,
        loss_rate: 0.12,
        jitter_ms: 25,
        seed: 0xFA_0175,
    }
}

/// One lossy run of the full nasty configuration (churn + Zipf storms) at
/// the given pool size / shard count / run-ahead bound.
fn run_faulty(workers: usize, shards: usize, mode: SteppingMode) -> RuntimeReport {
    let config = SessionConfig {
        seed: 29,
        network: Some(faulty_network()),
        ..SessionConfig::paper_default(3, 35)
    };
    let pool = Arc::new(WorkerPool::new(workers));
    let mut m = SessionManager::new(config, pool, || Box::new(FastSwitchScheduler::new()));
    m.set_zap_schedule(Box::new(
        CrowdZap::zipf(3, 35, config.zap_fraction, 1.2, 29).with_storms(vec![Storm {
            at: 20,
            target: 1,
            size: 15,
        }]),
    ));
    m.enable_channel_churn(5);
    m.set_shards(shards);
    m.set_mode(mode);
    m.warmup(14);
    m.run_periods(18);
    m.report()
}

/// Digest of the (workers=1, shards=1, run-ahead 1) faulty reference run.
/// Every other combination must reproduce its surfaces byte for byte.
const FAULTY_PINNED_DIGEST: u64 = 13441145006459968134;

#[test]
fn faulty_runs_are_pinned_and_identical_across_pools_shards_and_modes() {
    let reference = run_faulty(1, 1, LOCKSTEP);
    let reference_surface = format!(
        "{}\n{}",
        legacy_surface(&reference),
        qoe_surface(&reference)
    );
    assert_eq!(
        fx_digest(&reference_surface),
        FAULTY_PINNED_DIGEST,
        "faulty event-mode run drifted from the pinned baseline:\n{reference_surface}"
    );

    for &workers in &[2usize, 4, 7] {
        for &shards in &[2usize, 4, 8] {
            for mode in [LOCKSTEP, SteppingMode::Pipelined { run_ahead: 4 }] {
                let report = run_faulty(workers, shards, mode);
                let surface = format!("{}\n{}", legacy_surface(&report), qoe_surface(&report));
                assert_eq!(
                    surface, reference_surface,
                    "faulty run diverged at workers={workers} shards={shards} mode={mode:?}"
                );
            }
        }
    }
}

/// A faulty event-mode period runs the lockstep pipeline: on a 4-shard
/// store with a 2-worker pool it makes exactly the two pool dispatches of a
/// lockstep period (the scheduling pass and the fused walk), with no serial
/// playback sweep beside them.
#[test]
fn faulty_event_period_takes_two_pool_dispatches() {
    let trace = TraceGenerator::new(GeneratorConfig::sized(256, 31)).generate("event-dispatch");
    let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
    let source = overlay.active_peers().next().unwrap();
    let pool = Arc::new(WorkerPool::new(2));
    let mut sys = StreamingSystem::new(
        overlay,
        GossipConfig::paper_default(),
        Box::new(FastSwitchScheduler::new()),
    );
    sys.set_shards(4);
    assert_eq!(sys.shard_count(), 4);
    sys.set_executor(pool.as_executor());
    sys.set_network(faulty_network());
    sys.start_initial_source(source);
    sys.run_periods(10);

    let before = pool.dispatches();
    sys.run_periods(5);
    assert_eq!(pool.dispatches() - before, 2 * 5);
    let stats = sys.network_stats();
    assert!(stats.data_lost > 0 && stats.data_delivered > 0);
}

#[test]
fn loss_shows_up_as_reduced_data_traffic() {
    let ideal = run_golden(4, 11, LOCKSTEP, false, false, NetworkConfig::ideal());
    let lossy = run_golden(4, 11, LOCKSTEP, false, false, NetworkConfig::lossy(0.2, 7));
    let data = |r: &RuntimeReport| r.channels.iter().map(|c| c.traffic.data_bits).sum::<u64>();
    assert!(
        data(&lossy) < data(&ideal),
        "20% loss must strictly reduce delivered data traffic"
    );
    let control = |r: &RuntimeReport| {
        r.channels
            .iter()
            .map(|c| c.traffic.control_bits)
            .sum::<u64>()
    };
    assert!(
        control(&lossy) > 0 && data(&lossy) > 0,
        "a 20%-lossy overlay must still stream"
    );
}
