//! Persistent pool vs per-period scoped spawn.
//!
//! Two questions, answered on whatever hardware runs this:
//!
//! * `dispatch/*` — what does *fanning out one period's worth of work* cost
//!   through (a) the persistent [`WorkerPool`] (park/unpark, zero spawns)
//!   versus (b) a fresh `std::thread::scope` spawn per call — the
//!   pre-refactor design of the parallel scheduling sweep?  The workload
//!   per chunk is a small fixed spin so the numbers isolate dispatch cost.
//! * `session/*` — end-to-end: one period of a 4-channel zapping
//!   [`SessionManager`] sharded over pools of 1 and 4 workers (identical
//!   reports either way; on a 1-vCPU container the sizes should tie).
//! * `pipeline/*` — many-channel stepping, lockstep (run-ahead 1) versus
//!   the default run-ahead bound: 10 measured periods of an 8-channel
//!   Zipf-zapping session.  The run-ahead lane pays one pool dispatch per
//!   *round* (potentially many periods) instead of one per period, and
//!   fast channels never wait for slow ones at a global lockstep —
//!   reports are byte-identical either way, so the delta is pure
//!   wall-clock.

use criterion::{criterion_group, criterion_main, Criterion};
use fss_core::FastSwitchScheduler;
use fss_runtime::zap::CrowdZap;
use fss_runtime::{SessionConfig, SessionManager, SteppingMode, WorkerPool};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const CHUNKS: usize = 8;
const SPIN: u64 = 2_000;

/// A small deterministic spin standing in for one chunk of scheduling work.
fn spin(sink: &AtomicU64, chunk: usize) {
    let mut acc = chunk as u64 + 1;
    for i in 0..SPIN {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    sink.fetch_xor(acc, Ordering::Relaxed);
}

fn bench_dispatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("dispatch");
    let sink = AtomicU64::new(0);

    let pool = WorkerPool::with_available_parallelism();
    group.bench_function("persistent_pool", |b| {
        b.iter(|| pool.execute(CHUNKS, &|i: usize| spin(&sink, i)))
    });

    group.bench_function("scoped_spawn", |b| {
        b.iter(|| {
            std::thread::scope(|scope| {
                for i in 0..CHUNKS {
                    let sink = &sink;
                    scope.spawn(move || spin(sink, i));
                }
            })
        })
    });

    group.finish();
}

fn zapping_session(workers: usize) -> SessionManager {
    let config = SessionConfig::paper_default(4, 100);
    let mut manager = SessionManager::new(config, Arc::new(WorkerPool::new(workers)), || {
        Box::new(FastSwitchScheduler::new())
    });
    manager.warmup(40);
    manager
}

fn bench_session(c: &mut Criterion) {
    let mut group = c.benchmark_group("session");
    group.sample_size(10);

    let mut manager = zapping_session(1);
    group.bench_function("zapping_period_4ch_pool1", |b| b.iter(|| manager.step()));

    let mut manager = zapping_session(4);
    group.bench_function("zapping_period_4ch_pool4", |b| b.iter(|| manager.step()));

    group.finish();
}

/// An 8-channel session with a sparse Zipf(1.0) zap workload, so channels
/// have real run-ahead room between their pairwise sync points.
fn many_channel_session(workers: usize, mode: SteppingMode) -> SessionManager {
    let config = SessionConfig {
        zap_fraction: 0.005,
        ..SessionConfig::paper_default(8, 50)
    };
    let mut manager = SessionManager::new(config, Arc::new(WorkerPool::new(workers)), || {
        Box::new(FastSwitchScheduler::new())
    });
    manager.set_zap_schedule(Box::new(CrowdZap::zipf(
        config.channels,
        config.viewers_per_channel,
        config.zap_fraction,
        1.0,
        config.seed,
    )));
    manager.set_mode(mode);
    manager.warmup(40);
    manager
}

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);

    for workers in [1, 4] {
        let mut lockstep = many_channel_session(workers, SteppingMode::Pipelined { run_ahead: 1 });
        group.bench_function(format!("many_channel_lockstep_pool{workers}"), |b| {
            b.iter(|| lockstep.run_periods(10))
        });

        let mut pipelined = many_channel_session(workers, SteppingMode::pipelined());
        group.bench_function(format!("many_channel_pipelined_pool{workers}"), |b| {
            b.iter(|| pipelined.run_periods(10))
        });
    }

    group.finish();

    // The structural (noise-free) comparison: pool dispatches per measured
    // period.  Lockstep pays one dispatch per period; the default bound
    // pays one per round, where a round covers up to `run_ahead` periods
    // of every channel not parked at a sync point — never more.
    let dispatches = |mode: SteppingMode| {
        let mut manager = many_channel_session(1, mode);
        let before = manager.pool().dispatches();
        manager.run_periods(40);
        manager.pool().dispatches() - before
    };
    let lockstep = dispatches(SteppingMode::Pipelined { run_ahead: 1 });
    let pipelined = dispatches(SteppingMode::pipelined());
    println!("note: pipeline/dispatches_per_40_periods_lockstep: {lockstep}");
    println!("note: pipeline/dispatches_per_40_periods_pipelined: {pipelined}");
    assert!(
        pipelined <= lockstep,
        "running ahead dispatched more than lockstep: {pipelined} > {lockstep}"
    );
}

criterion_group!(benches, bench_dispatch, bench_session, bench_pipeline);
criterion_main!(benches);
