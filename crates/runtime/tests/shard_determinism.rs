//! Sharded peer storage must be unobservable in every report: a channel's
//! struct-of-arrays shard count changes *where* peer columns live and how
//! the scheduling pass is chunked over the worker pool — never a single
//! byte of any result.
//!
//! The sweep below drives the nastiest configuration the runtime offers —
//! per-channel churn, a Zipf zap workload with a flash-crowd storm and the
//! rate-limited admission queue — across shard counts {1, 2, 4, 8} × pool
//! sizes {1, 2, 4, 7} × run-ahead bounds {1, 4}, and
//! additionally pins the report digest so a shard-dependent result cannot
//! sneak in together with a compensating test update.  Since the period's
//! grant step and fused walk both run per chunk on the pool, the same sweep
//! pins them too.
//!
//! A second sweep pins the event-driven core against the lockstep fused
//! walk: with the ideal network installed, event mode (which grants through
//! the same scheduling chunks but applies the grants message by message)
//! matches period mode byte for byte, across shard counts.

use fss_core::FastSwitchScheduler;
use fss_overlay::NetworkConfig;
use fss_runtime::zap::{CrowdZap, Storm};
use fss_runtime::{
    AdmissionControl, RuntimeReport, SessionConfig, SessionManager, SteppingMode, WorkerPool,
};
use std::hash::Hasher;
use std::sync::Arc;

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

/// The full report surface, admission metrics included (this sweep exists
/// to exercise the rate-limited admission path under sharding).  `{:?}` on
/// `f64` prints the shortest round-trip representation, so the digest is
/// exact, not rounded.
fn surface(report: &RuntimeReport) -> String {
    use std::fmt::Write;
    let timeline = depth_by_boundary(report);
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
        " | cross={:?} load={:?} mem={:?} adm={:?} q={timeline:?}",
        report.cross_channel_zaps, report.zap_load, report.mem, report.admission
    )
    .unwrap();
    s
}

/// The post-drain admission-queue depth summed across channels at each
/// period boundary, read off the report's bounded depth timeline.  The run
/// is shorter than the timeline's 64 windows, so each window is one
/// boundary.
fn depth_by_boundary(report: &RuntimeReport) -> Vec<(u64, usize)> {
    let timeline = &report.queue_depth;
    assert_eq!(timeline.stride(), 1, "one window per boundary");
    timeline
        .windows()
        .map(|w| (w.start_period, w.last as usize))
        .collect()
}

fn run(shards: usize, workers: usize, mode: SteppingMode) -> RuntimeReport {
    let config = SessionConfig {
        seed: 47,
        admission: AdmissionControl::rate_limited(6),
        ..SessionConfig::paper_default(4, 40)
    };
    let mut m = SessionManager::new(config, Arc::new(WorkerPool::new(workers)), || {
        Box::new(FastSwitchScheduler::new())
    });
    m.set_zap_schedule(Box::new(CrowdZap::zipf(4, 40, 0.03, 1.2, 47).with_storms(
        vec![Storm {
            at: 30,
            target: 1,
            size: 40,
        }],
    )));
    m.enable_channel_churn(9);
    m.set_shards(shards);
    m.set_mode(mode);
    m.warmup(25);
    m.run_periods(30);
    m.report()
}

/// The digest of the single-shard, single-worker, run-ahead 1 run.  Every
/// other (shards, workers, mode) combination must reproduce it byte for
/// byte.
const PINNED_DIGEST: u64 = 11512891525223852588;

/// Digest of the same reference run's streaming-QoE telemetry surface
/// (bounded timelines + scorecard), pinned separately so the legacy pin
/// above keeps its pre-telemetry value.
const QOE_PINNED_DIGEST: u64 = 14642074705797875759;

/// The telemetry surface of one report: the folded QoE / queue-depth
/// timelines and the scorecard's exact text form.
fn qoe_surface(report: &RuntimeReport) -> String {
    format!(
        "qoe={:?} depth={:?} card={}",
        report.qoe_timeline,
        report.queue_depth,
        report.scorecard.to_text()
    )
}

#[test]
fn reports_are_byte_identical_across_shard_counts_and_pool_sizes() {
    let reference = run(1, 1, SteppingMode::Pipelined { run_ahead: 1 });
    assert!(reference.total_zaps() > 0);
    assert!(reference.cross_channel_zaps.completed > 0);
    assert!(reference.admission.rate_limited);
    assert!(reference.admission.deferred > 0, "the storm must queue");

    assert_eq!(
        fx_digest(&surface(&reference)),
        PINNED_DIGEST,
        "sharded run drifted from the pinned baseline:\n{}",
        surface(&reference)
    );
    assert!(
        reference.scorecard.admission_peak_queue > 0,
        "the storm must register on the depth timeline"
    );
    assert_eq!(
        fx_digest(&qoe_surface(&reference)),
        QOE_PINNED_DIGEST,
        "QoE telemetry drifted from the pinned baseline:\n{}",
        qoe_surface(&reference)
    );

    for &shards in &[1usize, 2, 4, 8] {
        for &workers in &[1usize, 2, 4, 7] {
            let report = run(shards, workers, SteppingMode::Pipelined { run_ahead: 1 });
            assert_eq!(report, reference, "shards={shards} workers={workers}");
        }
        // Running ahead composes with sharding too.
        let report = run(shards, 4, SteppingMode::Pipelined { run_ahead: 4 });
        assert_eq!(report, reference, "pipelined shards={shards}");
    }
}

/// Event-mode leg: the same churn + storm workload, optionally with a
/// network model installed.
fn run_event(shards: usize, network: Option<NetworkConfig>) -> RuntimeReport {
    let config = SessionConfig {
        seed: 13,
        network,
        ..SessionConfig::paper_default(4, 40)
    };
    let pool = Arc::new(WorkerPool::new(3));
    let mut m = SessionManager::new(config, pool, || Box::new(FastSwitchScheduler::new()));
    m.set_zap_schedule(Box::new(
        CrowdZap::zipf(4, 40, config.zap_fraction, 1.2, 13).with_storms(vec![Storm {
            at: 32,
            target: 1,
            size: 25,
        }]),
    ));
    m.enable_channel_churn(5);
    m.set_shards(shards);
    m.warmup(25);
    m.run_periods(30);
    m.report()
}

#[test]
fn ideal_event_mode_matches_the_fused_walk_across_shards() {
    let fused = run_event(1, None);
    for &shards in &[1usize, 2, 4, 8] {
        let event = run_event(shards, Some(NetworkConfig::ideal()));
        assert_eq!(event, fused, "event vs fused, shards={shards}");
        assert_eq!(run_event(shards, None), fused, "fused, shards={shards}");
    }
}
