//! End-to-end period throughput on a 1000-node overlay in steady state.
//!
//! Each lane times one full scheduling period (buffer-map exchange,
//! discovery, context building, scheduling, transfer resolution, delivery,
//! playback) of `StreamingSystem::advance`, or one piece of the system
//! around it; the function that registers a lane group documents it.
//! Numbers print to stdout.  `BENCH_period.json` keeps earlier runs as
//! history; `perfbench/` is the repository's recorded benchmark.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use fss_core::FastSwitchScheduler;
use fss_gossip::directory::{sample_neighbours, select_movers};
use fss_gossip::{AdmissionScratch, GossipConfig, MembershipView, StreamingSystem};
use fss_overlay::{BandwidthConfig, OverlayBuilder, PeerAttrs, PeerId};
use fss_trace::{GeneratorConfig, TraceGenerator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const NODES: usize = 1_000;
const WARMUP_PERIODS: u64 = 60;

/// Builds a 1k-node system streamed to steady state.
fn steady_system(seed: u64) -> StreamingSystem {
    sharded_steady_system(seed, 1)
}

/// Builds a 1k-node system on `shards` store shards, streamed to steady
/// state.
fn sharded_steady_system(seed: u64, shards: usize) -> StreamingSystem {
    let trace = TraceGenerator::new(GeneratorConfig::sized(NODES, seed)).generate("throughput");
    let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
    let source = overlay.active_peers().next().unwrap();
    let mut sys = StreamingSystem::new(
        overlay,
        GossipConfig::paper_default(),
        Box::new(FastSwitchScheduler::new()),
    );
    sys.set_shards(shards);
    sys.start_initial_source(source);
    sys.run_periods(WARMUP_PERIODS);
    sys
}

fn bench_period_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("period_throughput");
    group.sample_size(10);

    let mut sys = steady_system(1);
    group.bench_function("optimized_period_1k", |b| b.iter(|| sys.advance()));

    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let pool = std::sync::Arc::new(fss_runtime::WorkerPool::new(workers));
    let mut sys = sharded_steady_system(1, workers);
    sys.set_executor(pool.as_executor());
    group.bench_function("optimized_period_1k_pool", |b| b.iter(|| sys.advance()));

    // A deliberately oversubscribed pool (4 workers regardless of vCPUs)
    // bounds the dispatch overhead the persistent pool adds per period.
    let pool = std::sync::Arc::new(fss_runtime::WorkerPool::new(4));
    let mut sys = sharded_steady_system(1, 4);
    sys.set_executor(pool.as_executor());
    group.bench_function("optimized_period_1k_pool4", |b| b.iter(|| sys.advance()));

    group.finish();
}

/// The `period/1m` + `mem/1m` lanes: one full scheduling period and the
/// footprint meter on a **million-peer** sharded system.  Gated behind
/// `FSS_BENCH_1M=1` — the warm-up alone streams 70 periods over a ~3.4 GB
/// working set, which is minutes of wall clock; the default bench run
/// skips it.  The recorded figures live in `BENCH_period.json`
/// (`period/1m`, `mem/1m`).
fn bench_million_peers(c: &mut Criterion) {
    if std::env::var_os("FSS_BENCH_1M").is_none() {
        return;
    }
    const MILLION: usize = 1_000_000;
    let trace = TraceGenerator::new(GeneratorConfig::sized(MILLION, 1)).generate("throughput-1m");
    let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
    let source = overlay.active_peers().next().unwrap();
    let mut sys = StreamingSystem::new(
        overlay,
        GossipConfig::paper_default(),
        Box::new(FastSwitchScheduler::new()),
    );
    sys.set_shards(16);
    sys.start_initial_source(source);
    sys.run_periods(70);

    let mem = sys.report().mem;
    println!(
        "mem/1m: {:.0} B/peer, {:.2} GB of peer state over {} shards",
        mem.bytes_per_peer(),
        mem.peer_bytes as f64 / 1e9,
        sys.shard_count(),
    );

    let mut group = c.benchmark_group("period");
    group.sample_size(10);
    group.bench_function("optimized_period_1m_sharded", |b| b.iter(|| sys.advance()));
    group.finish();

    let mut group = c.benchmark_group("mem");
    group.sample_size(10);
    group.bench_function("usage_sweep_1m", |b| {
        b.iter(|| criterion::black_box(sys.memory_usage()))
    });
    group.finish();
}

/// The `locality/*` lane: the fused period pipeline — grants made in the
/// scheduling chunks, then per chunk the grants applied and playback
/// advanced while the chunk's hot columns are resident — unsharded
/// (`fused_period_1k`) and over an 8-shard store
/// (`fused_period_1k_sharded8`, one chunk per shard run).
fn bench_locality(c: &mut Criterion) {
    let mut group = c.benchmark_group("locality");
    group.sample_size(10);

    let mut sys = steady_system(1);
    group.bench_function("fused_period_1k", |b| b.iter(|| sys.advance()));

    let mut sys = sharded_steady_system(1, 8);
    group.bench_function("fused_period_1k_sharded8", |b| b.iter(|| sys.advance()));

    group.finish();
}

/// The `zap_admission/*` lane: what one zap batch (12 movers out, 12
/// arrivals in, `M = 5` neighbours each) costs to *resolve* on a steady
/// 1k-node channel pair through the membership directory: incremental
/// views, pooled scratch, sparse-Fisher–Yates sampling, zero allocation.
fn bench_zap_admission(c: &mut Criterion) {
    const BATCH: usize = 12;
    const DEGREE: usize = 5;

    let origin = steady_system(2);
    let target = steady_system(3);
    let origin_source = origin.overlay().active_peers().next().unwrap();
    let bandwidth = BandwidthConfig::default();

    let mut scratch = AdmissionScratch::default();
    let mut group = c.benchmark_group("zap_admission");
    group.sample_size(20);

    let mut rng = SmallRng::seed_from_u64(5);
    group.bench_function("directory_batch_1k", |b| {
        b.iter(|| {
            directory_resolve(
                origin.membership_view(),
                target.membership_view(),
                origin_source,
                BATCH,
                DEGREE,
                bandwidth,
                &mut rng,
                &mut scratch,
            );
            black_box(scratch.neighbours.len())
        })
    });

    group.finish();
}

/// The `qoe_overhead/*` lane: the telemetry tax of the streaming QoE
/// recorder on one full steady period.  `events_on_1k` is the default
/// configuration (recorder enabled, one `observe` per peer per period plus
/// the period fold); `events_off_1k` skips the whole event path.  The
/// acceptance target in `BENCH_period.json` is ≤ 5 % overhead.
fn bench_qoe_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("qoe_overhead");
    group.sample_size(10);

    let mut sys = steady_system(1);
    assert!(sys.qoe().is_enabled(), "QoE recording defaults to on");
    group.bench_function("events_on_1k", |b| b.iter(|| sys.advance()));
    assert!(
        sys.qoe().totals().startups > 0,
        "the instrumented steps must record startups"
    );

    let mut sys = steady_system(1);
    sys.set_qoe_enabled(false);
    group.bench_function("events_off_1k", |b| b.iter(|| sys.advance()));

    group.finish();
}

/// The `net/*` lane: what the event-driven core costs per period.
///
/// `event_ideal_1k` runs the identical workload as `period_mode_1k` —
/// the ideal model skips every fault draw and delivers at the resolving
/// boundary, so the reports stay byte-identical and the measured delta is
/// the event-step bookkeeping alone.  `event_faulty_1k` sends every grant
/// through the arrival calendar and drains it before the next boundary.  The
/// acceptance budget in `BENCH_period.json` is ≤ 10 % over period mode.
fn bench_net_overhead(c: &mut Criterion) {
    use fss_overlay::NetworkConfig;

    let mut group = c.benchmark_group("net");
    group.sample_size(10);

    let mut sys = steady_system(1);
    group.bench_function("period_mode_1k", |b| b.iter(|| sys.advance()));

    let mut sys = steady_system(1);
    sys.set_network(NetworkConfig::ideal());
    group.bench_function("event_ideal_1k", |b| b.iter(|| sys.advance()));
    assert_eq!(
        sys.network_stats().data_lost,
        0,
        "the ideal model must never sample the loss stream"
    );

    let trace = TraceGenerator::new(GeneratorConfig::sized(NODES, 1)).generate("throughput");
    let overlay = OverlayBuilder::paper_default().build(&trace).unwrap();
    let source = overlay.active_peers().next().unwrap();
    let mut sys = StreamingSystem::new(
        overlay,
        GossipConfig::paper_default(),
        Box::new(FastSwitchScheduler::new()),
    );
    sys.set_network(NetworkConfig {
        latency_scale: 1.0,
        loss_rate: 0.05,
        jitter_ms: 10,
        seed: 0x25,
    });
    sys.start_initial_source(source);
    sys.run_periods(WARMUP_PERIODS);
    group.bench_function("event_faulty_1k", |b| b.iter(|| sys.advance()));
    assert!(
        sys.network_stats().data_lost > 0,
        "the faulty lane must actually drop messages"
    );

    group.finish();
}

/// One zap batch resolved out of pooled scratch.
#[allow(clippy::too_many_arguments)]
fn directory_resolve(
    origin: &MembershipView,
    target: &MembershipView,
    origin_source: PeerId,
    batch: usize,
    degree: usize,
    bandwidth: BandwidthConfig,
    rng: &mut SmallRng,
    scratch: &mut AdmissionScratch,
) {
    scratch.clear();
    select_movers(origin, origin_source, |_| false, batch, rng, scratch);
    let degree = degree.min(target.len());
    for _ in 0..scratch.movers.len() {
        sample_neighbours(target, degree, rng, scratch);
        scratch.attrs.push(PeerAttrs {
            ping_ms: 80.0 * rng.gen_range(0.5..2.0),
            bandwidth: bandwidth.sample_peer(rng),
        });
    }
}

criterion_group!(
    benches,
    bench_period_throughput,
    bench_million_peers,
    bench_locality,
    bench_zap_admission,
    bench_qoe_overhead,
    bench_net_overhead
);
criterion_main!(benches);
