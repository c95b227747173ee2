//! The two workloads and what they share.

pub mod steady;
pub mod zap;

use crate::metrics::Outcome;
use crate::seams::{CoreSnapshot, RuntimeStats, Spans};
use crate::stats::{median, quantile, ratio};
use std::time::{Duration, Instant};

/// Worker count of every workload's pool: the calling thread plus one
/// worker, matching the 2-vCPU reference host.
pub const POOL_WORKERS: usize = 2;

/// Mixes the command-line seed into a per-purpose seed.
pub fn derive_seed(seed: u64, purpose: u64) -> u64 {
    let mut z = seed ^ purpose.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Number of measured units for a run of `seconds` at `per_second` units
/// per second on the reference host, at least `min`.
pub fn units_for(seconds: u64, per_second: f64, min: u64) -> u64 {
    ((seconds as f64 * per_second).round() as u64).max(min)
}

/// Runs `f` and returns its result with the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Runs `f` inside a span named `name` when tracing, plainly otherwise.
pub fn maybe_span<T>(spans: Option<&Spans>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match spans {
        Some(spans) => spans.time(name, f),
        None => f(),
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Records `period_ms.p50`/`.p90` from per-unit samples and notes the
/// sample count.
pub fn record_periods(outcome: &mut Outcome, what: &str, samples_ms: &[f64]) {
    outcome.set("period_ms.p50", median(samples_ms));
    outcome.set("period_ms.p90", quantile(samples_ms, 0.9));
    outcome.note(format!(
        "period_ms: {what}; samples={} p50={:.4} p90={:.4} max={:.4}",
        samples_ms.len(),
        median(samples_ms),
        quantile(samples_ms, 0.9),
        quantile(samples_ms, 1.0)
    ));
}

/// Records the `core.*` metrics from the scheduler counters of an interval
/// of `periods` periods.
pub fn record_core(outcome: &mut Outcome, core: &CoreSnapshot, periods: f64) {
    let calls = core.calls as f64;
    outcome.set("core.calls", ratio(calls, periods));
    outcome.set("core.self_ms", ratio(core.ns as f64 / 1e6, periods));
    outcome.set("core.ns_per_call.p50", core.ns_per_call_p50());
    outcome.set(
        "core.candidates_per_call",
        ratio(core.candidates as f64, calls),
    );
    outcome.set(
        "core.suppliers_per_candidate",
        ratio(core.suppliers as f64, core.candidates as f64),
    );
    outcome.set("core.requests_per_call", ratio(core.requests as f64, calls));
    outcome.set("core.switch_share", ratio(core.switch_calls as f64, calls));
}

/// Records the `runtime.*` metrics from executor timings over `periods`
/// periods on a pool of `workers`.
pub fn record_runtime(outcome: &mut Outcome, rt: &RuntimeStats, periods: f64, workers: usize) {
    let dispatches = rt.dispatches as f64;
    outcome.set("runtime.dispatches", ratio(dispatches, periods));
    outcome.set(
        "runtime.chunks_per_dispatch",
        ratio(rt.chunks as f64, dispatches),
    );
    outcome.set(
        "runtime.dispatch_ms",
        ratio(rt.wall_ns as f64 / 1e6, dispatches),
    );
    outcome.set(
        "runtime.chunk_busy_ms",
        ratio(rt.busy_ns as f64 / 1e6, dispatches),
    );
    outcome.set(
        "runtime.efficiency",
        ratio(rt.busy_ns as f64, workers as f64 * rt.wall_ns as f64),
    );
    outcome.set("runtime.imbalance", ratio(rt.imbalance_sum, dispatches));
}

/// Sets every listed metric to 0: the workload does not exercise that
/// layer.
pub fn record_bypassed(outcome: &mut Outcome, names: &[&'static str]) {
    for &name in names {
        outcome.set(name, 0.0);
    }
}

/// The `net.*` metric names.
pub const NET_METRICS: &[&str] = &[
    "net.data_sent",
    "net.delivered_ratio",
    "net.lost",
    "net.stale",
    "net.requests_blinded",
    "net.requests_lost",
    "net.max_in_flight",
];

/// The `directory.*` metric names.
pub const DIRECTORY_METRICS: &[&str] = &[
    "directory.zaps",
    "directory.admitted",
    "directory.deferred",
    "directory.max_queue_depth",
];
