//! One benchmark per paper figure, at reduced scale.
//!
//! Each benchmark runs the *same code path* that regenerates the figure
//! (`figures` binary / `fss_experiments::figures`), on a small overlay so the
//! whole suite stays in the minutes range.  Use
//! `cargo run --release -p fss-experiments --bin figures` for the full-size
//! tables.

use criterion::{criterion_group, criterion_main, Criterion};
use fss_experiments::figures::{sweeps, tracks};
use fss_experiments::{run_comparison, sweep_sizes, Algorithm, Environment, ScenarioConfig};

const TRACK_NODES: usize = 80;
const SWEEP_SIZES: [usize; 2] = [60, 100];

fn bench_ratio_tracks(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);

    // Figure 5: ratio tracks, static environment.
    group.bench_function("fig05_ratio_track_static", |b| {
        let config = ScenarioConfig::quick(TRACK_NODES, Algorithm::Fast, Environment::Static);
        b.iter(|| {
            let cmp = run_comparison(&config);
            tracks::ratio_track_table(Environment::Static, &cmp)
        })
    });

    // Figure 9: ratio tracks, dynamic environment.
    group.bench_function("fig09_ratio_track_dynamic", |b| {
        let config = ScenarioConfig::quick(TRACK_NODES, Algorithm::Fast, Environment::Dynamic);
        b.iter(|| {
            let cmp = run_comparison(&config);
            tracks::ratio_track_table(Environment::Dynamic, &cmp)
        })
    });
    group.finish();
}

fn bench_sweeps(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);

    // Figures 6, 7 and 8 share one static size sweep.
    group.bench_function("fig06_07_08_static_sweep", |b| {
        let base = ScenarioConfig::quick(SWEEP_SIZES[0], Algorithm::Fast, Environment::Static);
        b.iter(|| {
            let points = sweep_sizes(&SWEEP_SIZES, &base);
            (
                sweeps::finishing_preparing_table(Environment::Static, &points),
                sweeps::switch_time_table(Environment::Static, &points),
                sweeps::overhead_table(Environment::Static, &points),
            )
        })
    });

    // Figures 10, 11 and 12 share one dynamic size sweep.
    group.bench_function("fig10_11_12_dynamic_sweep", |b| {
        let base = ScenarioConfig::quick(SWEEP_SIZES[0], Algorithm::Fast, Environment::Dynamic);
        b.iter(|| {
            let points = sweep_sizes(&SWEEP_SIZES, &base);
            (
                sweeps::finishing_preparing_table(Environment::Dynamic, &points),
                sweeps::switch_time_table(Environment::Dynamic, &points),
                sweeps::overhead_table(Environment::Dynamic, &points),
            )
        })
    });
    group.finish();
}

criterion_group!(benches, bench_ratio_tracks, bench_sweeps);
criterion_main!(benches);
