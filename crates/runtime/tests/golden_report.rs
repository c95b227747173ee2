//! Pins the exact `RuntimeReport` content of representative multi-channel
//! runs so refactors of the membership/admission machinery cannot silently
//! change results.
//!
//! The digests below were captured from the session manager **before** the
//! membership directory existed (the per-batch `active_peers()` collection
//! path of PR 4).  The directory refactor must reproduce those reports
//! byte-for-byte whenever the admission queue is disabled (the default):
//! every RNG draw of the zap, churn and repair paths has to stay in the
//! same order over the same candidate sets.
//!
//! Only fields that existed before the refactor contribute to the digest —
//! new additive metrics (e.g. the admission summary) are deliberately
//! excluded so they can evolve without invalidating the pin.

use fss_core::FastSwitchScheduler;
use fss_runtime::zap::{CrowdZap, Storm};
use fss_runtime::{RuntimeReport, SessionConfig, SessionManager, SteppingMode, WorkerPool};
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

/// Formats the pre-refactor report surface.  `{:?}` on `f64` prints the
/// shortest round-trip representation, so the digest is exact, not rounded.
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

/// The streaming-QoE telemetry surface (bounded timelines + scorecard),
/// pinned separately from the legacy surface so the pre-directory digests
/// above stay valid while the telemetry layer gets its own drift guard.
fn qoe_surface(report: &RuntimeReport) -> String {
    format!(
        "qoe={:?} depth={:?} card={}",
        report.qoe_timeline,
        report.queue_depth,
        report.scorecard.to_text()
    )
}

fn run(channels: usize, seed: u64, mode: SteppingMode, churn: bool, storms: bool) -> RuntimeReport {
    let config = SessionConfig {
        seed,
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

#[test]
fn uniform_barrier_report_matches_the_pre_directory_pin() {
    let report = run(4, 11, LOCKSTEP, false, false);
    let surface = legacy_surface(&report);
    assert_eq!(
        fx_digest(&surface),
        7891393507360765557,
        "report drifted from the pre-directory baseline:\n{surface}"
    );
}

#[test]
fn churn_storm_pipelined_report_matches_the_pre_directory_pin() {
    let report = run(5, 13, SteppingMode::Pipelined { run_ahead: 4 }, true, true);
    let surface = legacy_surface(&report);
    assert_eq!(
        fx_digest(&surface),
        13897321595663294905,
        "report drifted from the pre-directory baseline:\n{surface}"
    );
}

#[test]
fn qoe_telemetry_is_pinned_for_the_uniform_barrier_run() {
    let report = run(4, 11, LOCKSTEP, false, false);
    let surface = qoe_surface(&report);
    assert!(report.scorecard.startups > 0, "warmup must start playback");
    assert_eq!(
        fx_digest(&surface),
        7323453145858924477,
        "QoE telemetry drifted from the pinned baseline:\n{surface}"
    );
}

#[test]
fn qoe_telemetry_is_pinned_for_the_churn_storm_pipelined_run() {
    let report = run(5, 13, SteppingMode::Pipelined { run_ahead: 4 }, true, true);
    let surface = qoe_surface(&report);
    assert_eq!(
        fx_digest(&surface),
        12569093327864263347,
        "QoE telemetry drifted from the pinned baseline:\n{surface}"
    );
}
